import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leadlag import (LoadingMatrix, LoadingVector, ModelSpec, ScaleMatrix,
                     ValidationError, attenuation, correlation_loading,
                     dense_eigenvalues, factor_eigencurve, factor_eigenvalues,
                     factor_strength_matrix, factor_strengths,
                     gram_eigenvalues, loading_matrix, loading_vector,
                     secular_eigenvalues, secular_function,
                     theoretical_correlation)

from oracles import (dense_loading_spectrum, equicorrelation_eigenvalues,
                     reduced_determinant)


def assemble_one_factor(rho):
    matrix = np.outer(rho, rho)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def random_loadings(rng, n):
    return LoadingVector(rng.uniform(-0.99, 0.99, n))


def blockwise_loadings(n, block_sizes, row_sq):
    """Disjoint-support factor columns: exactly orthogonal, saturated rows."""
    rho = np.zeros((n, len(block_sizes)))
    start = 0
    for f, (size, r2) in enumerate(zip(block_sizes, row_sq)):
        rho[start:start + size, f] = math.sqrt(r2)
        start += size
    return LoadingMatrix(rho)


class TestEquicorrelation:
    """The equal-loading closed form (a test oracle) and the market case."""

    def test_zero_loading_is_identity(self):
        assert np.array_equal(equicorrelation_eigenvalues(7, 0.0), np.ones(7))

    def test_direct_substitution(self):
        values = equicorrelation_eigenvalues(3, 0.5)
        assert np.allclose(values, [2.0, 0.5, 0.5])
        assert np.allclose(values, dense_loading_spectrum(np.full(3, math.sqrt(0.5))))

    def test_market_size_saturation(self):
        # gamma=0.17, alpha=0.16, tau -> inf: exact equal-loading saturation.
        # The fitted-formula limit (~128) intentionally sits above this exact
        # level (~104) by roughly (1 + gamma/attenuation(inf)): the formula is
        # a large-eigenvalue approximation, not the equal-loading closed form.
        rho_inf_sq = correlation_loading(0.17, 0.16, math.inf) ** 2
        assert rho_inf_sq == pytest.approx(1.0 / (1.0 + (1 - 0.16) ** 2 / 0.17), rel=1e-12)
        lv = LoadingVector(np.full(533, math.sqrt(rho_inf_sq)))
        top = secular_eigenvalues(lv).eigenvalues[0]
        assert top == pytest.approx(1 + 532 * rho_inf_sq, rel=1e-12)
        approx_limit = 533 * 0.17 / (1 - 0.16) ** 2
        assert approx_limit / top == pytest.approx(1 + 0.17 / 0.7056, rel=0.02)


class TestCorrelationLoading:
    def test_strong_signal_limit(self):
        assert correlation_loading(1e12, 0.3, 5) == pytest.approx(1.0, abs=1e-6)

    def test_memoryless_is_scale_free(self):
        values = {correlation_loading(0.5, 0.0, tau) for tau in (1, 2, 64, 4096)}
        assert len(values) == 1
        assert values.pop() ** 2 == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValidationError, match="gamma"):
            correlation_loading(0.0, 0.2, 4)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_gamma_and_strength(self, value):
        # both used to pass a `<= 0` guard and return NaN
        with pytest.raises(ValidationError, match="gamma"):
            correlation_loading(value, 0.2, 1)
        with pytest.raises(ValidationError, match="strength"):
            factor_eigencurve(10, value, 0.2, (1, 2, 4))

    def test_matches_loading_vector_from_spec(self):
        spec = ModelSpec.single_factor(4, 0.3, 0.25)
        lv = loading_vector(spec, 8)
        assert np.allclose(lv.rho, correlation_loading(0.3, 0.25, 8), rtol=1e-13)


class TestSecularEigenvalues:
    def test_equal_loadings_match_closed_form(self):
        rho = np.full(12, 0.6)
        sec = secular_eigenvalues(LoadingVector(rho))
        closed = equicorrelation_eigenvalues(12, 0.36)
        assert np.max(np.abs(sec.eigenvalues - closed)) < 1e-12
        assert np.array_equal(sec.multiplicities, [1] + [11] * 11)

    def test_two_by_two_closed_form(self):
        a, b = 0.7, 0.2
        sec = secular_eigenvalues(LoadingVector(np.array([a, b])))
        assert np.max(np.abs(sec.eigenvalues - np.array([1 + a * b, 1 - a * b]))) < 1e-12

    def test_random_against_dense_oracle(self):
        rng = np.random.default_rng(6)
        lv = random_loadings(rng, 50)
        sec = secular_eigenvalues(lv).eigenvalues
        dense = np.linalg.eigvalsh(assemble_one_factor(lv.rho))[::-1]
        assert np.max(np.abs(sec - dense)) < 1e-8

    def test_zero_loadings_contribute_unit_eigenvalue(self):
        rho = np.array([0.0, 0.5, 0.0, -0.3, 0.0])
        sec = secular_eigenvalues(LoadingVector(rho))
        assert np.sum(np.isclose(sec.eigenvalues, 1.0, atol=1e-14)) == 3

    def test_tied_group_multiplicity(self):
        rho = np.array([0.4, 0.4, -0.4, 0.8, 0.1])
        sec = secular_eigenvalues(LoadingVector(rho))
        tied = 1.0 - 0.16
        assert np.sum(np.isclose(sec.eigenvalues, tied, atol=1e-12)) == 2
        dense = np.linalg.eigvalsh(assemble_one_factor(rho))[::-1]
        assert np.max(np.abs(sec.eigenvalues - dense)) < 1e-10

    def test_rejects_invalid_loadings(self):
        with pytest.raises(ValidationError, match="not a valid correlation structure"):
            LoadingVector(np.array([0.5, 1.2]))

    def test_trace_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lv = random_loadings(rng, int(rng.integers(2, 40)))
            sec = secular_eigenvalues(lv)
            n = lv.n_assets
            assert abs(sec.trace - n) < 1e-9 * n

    @pytest.mark.parametrize("rho", [
        [0.0, 0.6, 0.6, -0.6, 0.3, 0.0, 0.85],
        # poles 1e-10 apart, where a vector built from the secular equation
        # amplifies the root error by 1/gap
        [0.0, 0.6, 0.6 + 1e-10, -0.6 + 2e-10, 0.3, 0.0, 0.85],
    ], ids=["tied", "near-tied"])
    def test_eigenvectors_are_orthonormal_and_consistent(self, rho):
        rho = np.array(rho)
        sec = secular_eigenvalues(LoadingVector(rho), with_vectors=True)
        matrix = assemble_one_factor(rho)
        resid = matrix @ sec.eigenvectors - sec.eigenvectors * sec.eigenvalues[None, :]
        assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(matrix))
        gram = sec.eigenvectors.T @ sec.eigenvectors
        assert np.max(np.abs(gram - np.eye(len(rho)))) < 1e-9

    @given(st.lists(st.floats(min_value=-0.98, max_value=0.98), min_size=2, max_size=12))
    def test_property_matches_dense(self, rho):
        lv = LoadingVector(np.asarray(rho))
        sec = secular_eigenvalues(lv).eigenvalues
        dense = np.linalg.eigvalsh(assemble_one_factor(lv.rho))[::-1]
        assert np.max(np.abs(sec - dense)) < 1e-8


class TestSecularStructure:
    def test_interlacing_and_monotone_f(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            lv = random_loadings(rng, n)  # continuous draws: no ties, no zeros
            z = np.sort(1.0 - lv.rho**2)
            brackets = list(zip(z[:-1], z[1:])) + [(z[-1], z[-1] + np.sum(lv.rho**2))]
            eigs = secular_eigenvalues(lv).eigenvalues
            for lo, hi in brackets:
                inside = [v for v in eigs if lo < v < hi + 1e-12]
                assert len(inside) == 1
                probes = np.linspace(lo, hi, 12)[1:-1]
                values = [secular_function(lv, p) for p in probes]
                assert np.all(np.diff(values) < 0.0)
            assert z[0] - 1e-12 <= eigs[-1] <= z[1] + 1e-12

    def test_one_factor_bulk_stays_below_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lv = LoadingVector(rng.uniform(0.05, 0.95, int(rng.integers(2, 40))))
            eigs = secular_eigenvalues(lv).eigenvalues
            assert eigs[1] < 1.0

    def test_positivity_when_loadings_admissible(self):
        eps = 1e-9
        lv = LoadingVector(np.array([1.0, math.sqrt(1 - eps), 0.5, 0.2]))
        eigs = secular_eigenvalues(lv).eigenvalues
        assert eigs[-1] >= -1e-12

    def test_negativity_when_loadings_exceed_one(self):
        # two loadings just above 1 (rejected by the type, so assembled raw)
        rho = np.array([1.0001, 1.0001, 0.4, 0.1])
        eigs = np.linalg.eigvalsh(assemble_one_factor(rho))
        assert eigs[0] < 0.0


class TestTopEigenvalueApprox:
    """sum_i rho_i^2, the large-N approximation of the top eigenvalue."""

    def test_equal_loading_gap_is_exact(self):
        n, r2 = 20, 0.3
        lv = LoadingVector(np.full(n, math.sqrt(r2)))
        approx = np.sum(lv.rho**2)
        exact = secular_eigenvalues(lv).eigenvalues[0]
        assert exact - approx == pytest.approx(1 - r2, rel=1e-12)

    def test_market_sized_accuracy(self):
        rng = np.random.default_rng(8)
        rho = np.sqrt(rng.uniform(0.05, 0.29, 533))  # mean rho^2 ~ 0.17
        lv = LoadingVector(rho)
        approx = np.sum(lv.rho**2)
        exact = secular_eigenvalues(lv).eigenvalues[0]
        assert abs(approx - exact) / exact < 0.02

    def test_single_asset_breakdown(self):
        lv = LoadingVector(np.array([0.5]))
        assert np.sum(lv.rho**2) == pytest.approx(0.25)
        assert secular_eigenvalues(lv).eigenvalues[0] == pytest.approx(1.0)

    def test_bracketing_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lv = LoadingVector(rng.uniform(0.1, 0.95, int(rng.integers(2, 60))))
            approx = np.sum(lv.rho**2)
            exact = secular_eigenvalues(lv).eigenvalues[0]
            assert approx <= exact + 1e-12
            assert exact <= approx + (1 - np.min(lv.rho**2)) + 1e-12


class TestReducedDeterminant:
    """The reduced determinant, a test oracle, against the secular roots."""

    def test_one_factor_reduction_vanishes_at_secular_roots(self):
        rng = np.random.default_rng(15)
        rho = rng.uniform(0.1, 0.9, 12)
        top = secular_eigenvalues(LoadingVector(rho)).eigenvalues[0]
        rho = rho[:, None]
        assert abs(reduced_determinant(rho, top)) < 1e-9
        assert reduced_determinant(rho, top + 0.5) * reduced_determinant(rho, top - 0.05) < 0

    def test_large_lambda_limit(self):
        rng = np.random.default_rng(16)
        rho = rng.uniform(-0.5, 0.5, (10, 2))
        assert reduced_determinant(rho, 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_zero_rows_add_no_term(self):
        # the zero row's pole 1 - 0 = 1 is not a singularity: it has no term
        assert reduced_determinant(np.array([[0.6], [0.0]]), 1.0) == 0.0


@st.composite
def loading_rows(draw):
    """(n, F) loadings mixing fresh, tied, near-tied, zero and unit-norm rows."""
    n_factors = draw(st.integers(1, 4))
    entry = st.integers(-1000, 1000).map(lambda k: k / 1000)  # no subnormal norms
    rows = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "tied", "near", "zero", "unit"]),
                              min_size=1, max_size=12)):
        row = np.array(draw(st.lists(entry, min_size=n_factors, max_size=n_factors)))
        norm = np.linalg.norm(row)
        if kind in ("tied", "near") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))] * draw(st.sampled_from([1.0, -1.0]))
            row = row * (1.0 - 1e-9) if kind == "near" else row
        elif kind == "zero" or norm == 0.0:
            row = np.zeros(n_factors)
        else:
            row = row / norm if kind == "unit" else row / max(1.0, norm)
        rows.append(row)
    return np.array(rows)


class TestSpectrumSlicer:
    def test_two_factor_roots_match_dense(self):
        spec = ModelSpec.orthogonal_factors(20, [0.6, 0.25], 0.2, seed=2)
        lm = loading_matrix(spec, 8)
        roots = factor_eigenvalues(lm)
        dense = dense_eigenvalues(theoretical_correlation(spec, 8)).eigenvalues
        above = dense[dense > 1.0]
        assert roots.size == above.size
        assert np.max(np.abs(roots - above)) < 1e-8

    @pytest.mark.parametrize("perturbation", [0.0, 1e-7])
    def test_tied_factor_blocks_give_both_roots(self, perturbation):
        # two disjoint blocks of 50 assets with rho^2 = 0.5: 1 + 49/2 twice
        lm = blockwise_loadings(100, (50, 50), (0.5, 0.5 + perturbation))
        roots = factor_eigenvalues(lm)
        assert roots.size == 2
        assert np.max(np.abs(roots - 25.5)) < 1e-5
        dense = dense_loading_spectrum(lm.rho)
        assert np.max(np.abs(roots - dense[:2])) < 1e-9

    def test_all_zero_loadings(self):
        values = secular_eigenvalues(LoadingVector(np.zeros(6))).eigenvalues
        assert values.size == 6
        assert np.max(np.abs(values - 1.0)) < 1e-15
        assert factor_eigenvalues(LoadingMatrix(np.zeros((6, 3)))).size == 0

    @given(loading_rows())
    def test_property_matches_dense_oracle(self, rho):
        dense = dense_loading_spectrum(rho)
        if rho.shape[1] == 1:
            spectrum = secular_eigenvalues(LoadingVector(rho[:, 0])).eigenvalues
            assert np.max(np.abs(spectrum - dense)) < 1e-9
        roots = factor_eigenvalues(LoadingMatrix(rho))
        assert np.all(roots > 1.0)
        assert np.all(np.abs(roots - dense[:roots.size]) < 1e-9)
        assert np.all(dense[roots.size:] <= 1.0 + 1e-9)


class TestGramEigenvalues:
    def test_orthogonal_columns_give_column_norms(self):
        lm = blockwise_loadings(100, (70, 20, 10), (0.857, 0.8, 0.8))
        norms = (lm.rho**2).sum(axis=0)
        assert np.allclose(gram_eigenvalues(lm), np.sort(norms)[::-1], rtol=1e-12)

    def test_single_factor_consistency(self):
        rng = np.random.default_rng(17)
        rho = rng.uniform(0.0, 0.9, 30)
        lm = LoadingMatrix(rho[:, None])
        assert gram_eigenvalues(lm)[0] == pytest.approx(np.sum(rho**2), rel=1e-12)

    def test_separated_factors_within_five_percent_of_dense(self):
        # well-separated column norms ~ {60, 16, 8} with saturated rows
        lm = blockwise_loadings(100, (70, 20, 10), (0.857, 0.8, 0.8))
        mu = gram_eigenvalues(lm)
        corr = np.diag(1.0 - lm.row_norms_sq()) + lm.rho @ lm.rho.T
        dense = np.linalg.eigvalsh(corr)[::-1][:3]
        assert np.max(np.abs(mu - dense) / dense) < 0.05


class TestFactorStrengths:
    def test_single_factor_is_mean_snr(self):
        rng = np.random.default_rng(18)
        beta = rng.normal(0, 0.5, (40, 1))
        sigma = rng.uniform(0.5, 2.0, 40)
        spec = ModelSpec(40, 1, 0.2, sigma, 1.3, beta)
        expected = np.mean(1.3**2 * beta[:, 0] ** 2 / sigma**2)
        assert factor_strengths(spec)[0] == pytest.approx(expected, rel=1e-12)

    def test_weighted_orthogonality_zeroes_offdiagonal(self):
        sigma = np.random.default_rng(19).uniform(0.5, 2.0, 30)
        raw = np.random.default_rng(20).normal(size=(30, 2))
        # orthogonalize the columns under the 1/sigma^2 weighting
        w = 1.0 / sigma**2
        raw[:, 1] -= raw[:, 0] * (raw[:, 0] * w @ raw[:, 1]) / (raw[:, 0] * w @ raw[:, 0])
        spec = ModelSpec(30, 2, 0.1, sigma, 1.0, raw)
        values = factor_strength_matrix(spec)
        assert abs(values[0, 1]) < 1e-12 * max(values[0, 0], values[1, 1])

    def test_uniform_spec(self):
        spec = ModelSpec(25, 1, 0.3, 1.0, 1.0, 0.4)
        assert factor_strengths(spec)[0] == pytest.approx(0.16, rel=1e-12)


class TestFactorEigencurve:
    TAUS = (1, 2, 4, 8, 16, 32, 64, 128)

    def test_memoryless_flat_at_market_amplitude(self):
        curve = factor_eigencurve(533, 0.17, 0.0, self.TAUS)
        assert np.allclose(curve.values, 533 * 0.17)
        assert abs(curve.values[0] - 90.0) < 1.0

    def test_market_limit_anchor(self):
        limit = 533 * 0.17 / attenuation(0.16, math.inf)
        assert abs(limit - 128.0) < 1.0
        far_out = factor_eigencurve(533, 0.17, 0.16, [1 << 20]).values[0]
        assert far_out == pytest.approx(limit, rel=1e-4)

    def test_unit_scale_value(self):
        curve = factor_eigencurve(100, 0.2, 0.3, self.TAUS)
        assert curve.values[0] == pytest.approx(100 * 0.2 / (1 - 0.09), rel=1e-12)

    def test_strictly_increasing_for_positive_alpha(self):
        curve = factor_eigencurve(50, 0.1, 0.4, self.TAUS)
        assert np.all(np.diff(curve.values) > 0.0)

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(ValidationError, match="strength"):
            factor_eigencurve(10, 0.0, 0.2, self.TAUS)


class TestDenseEigenvalues:
    def test_identity(self):
        spectrum = dense_eigenvalues(ScaleMatrix(np.eye(9), 1, "correlation"))
        assert np.array_equal(spectrum.eigenvalues, np.ones(9))

    def test_matches_equicorrelation_closed_form(self):
        matrix = assemble_one_factor(np.full(15, 0.55))
        spectrum = dense_eigenvalues(ScaleMatrix(matrix, 1, "correlation"))
        closed = equicorrelation_eigenvalues(15, 0.55**2)
        assert np.max(np.abs(spectrum.eigenvalues - closed)) < 1e-10

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(23)
        raw = rng.normal(size=(8, 8))
        sym = 0.5 * (raw + raw.T)
        spectrum = dense_eigenvalues(ScaleMatrix(sym, 1, "covariance"))
        assert spectrum.trace == pytest.approx(np.trace(sym), abs=1e-10)
        # LU-based determinant is independent of the symmetric eigensolver
        det_lu = np.linalg.det(sym)
        assert np.prod(spectrum.eigenvalues) == pytest.approx(det_lu, rel=1e-8)

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(24)
        raw = rng.normal(size=(20, 20))
        sym = 0.5 * (raw + raw.T)
        spectrum = dense_eigenvalues(ScaleMatrix(sym, 1, "covariance"), with_vectors=True)
        resid = sym @ spectrum.eigenvectors - spectrum.eigenvectors * spectrum.eigenvalues
        assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(sym))

    def test_asymmetric_input_rejected_at_type_boundary(self):
        with pytest.raises(ValidationError, match="symmetric"):
            ScaleMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]), 1, "covariance")
