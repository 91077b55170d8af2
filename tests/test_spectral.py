import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leadlag import (LoadingMatrix, ModelSpec, ScaleMatrix,
                     Spectrum, ValidationError, attenuation, correlation_loading,
                     dense_eigenvalues, factor_eigencurve, factor_eigenvalues,
                     gram_eigenvalues, loading_matrix, loading_vector,
                     secular_eigenvalues, secular_function,
                     theoretical_correlation)
from leadlag.pipeline import REFERENCE_STRENGTHS

from oracles import (dense_loading_spectrum, equicorrelation_eigenvalues,
                     mp_eigenvalue_count, mp_loading_spectrum, reduced_determinant)


def assemble_one_factor(rho):
    matrix = np.outer(rho, rho)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def random_loadings(rng, n):
    return LoadingMatrix(rng.uniform(-0.99, 0.99, n)[:, None])


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
        lv = LoadingMatrix(np.full(533, math.sqrt(rho_inf_sq))[:, None])
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
        assert isinstance(lv, LoadingMatrix) and lv.rho.shape == (4, 1) and lv.scale == 8
        assert np.array_equal(lv.rho, loading_matrix(spec, 8).rho)
        assert np.allclose(lv.rho, correlation_loading(0.3, 0.25, 8), rtol=1e-13)


class TestSecularEigenvalues:
    def test_equal_loadings_match_closed_form(self):
        rho = np.full(12, 0.6)
        sec = secular_eigenvalues(LoadingMatrix(rho[:, None]))
        closed = equicorrelation_eigenvalues(12, 0.36)
        assert np.max(np.abs(sec.eigenvalues - closed)) < 1e-12
        assert np.unique(sec.eigenvalues).size == 2

    def test_two_by_two_closed_form(self):
        a, b = 0.7, 0.2
        sec = secular_eigenvalues(LoadingMatrix(np.array([a, b])[:, None]))
        assert np.max(np.abs(sec.eigenvalues - np.array([1 + a * b, 1 - a * b]))) < 1e-12

    def test_random_against_dense_oracle(self):
        rng = np.random.default_rng(6)
        lv = random_loadings(rng, 50)
        sec = secular_eigenvalues(lv).eigenvalues
        dense = np.linalg.eigvalsh(assemble_one_factor(lv.rho))[::-1]
        assert np.max(np.abs(sec - dense)) < 1e-8

    def test_four_factors_match_dense_oracle(self):
        # the full spectrum for any F: the factor roots' slicer, floored below every pole
        spec = ModelSpec.orthogonal_factors(200, REFERENCE_STRENGTHS, 0.16, seed=3)
        lm = loading_matrix(spec, 8)
        sec = secular_eigenvalues(lm).eigenvalues
        dense = dense_loading_spectrum(lm.rho)
        assert sec.shape == (200,)
        assert np.max(np.abs(sec - dense)) <= 1e-12 * max(1.0, dense[0])

    def test_zero_loadings_contribute_unit_eigenvalue(self):
        rho = np.array([0.0, 0.5, 0.0, -0.3, 0.0])
        sec = secular_eigenvalues(LoadingMatrix(rho[:, None]))
        assert np.sum(np.isclose(sec.eigenvalues, 1.0, atol=1e-14)) == 3

    def test_tied_group_multiplicity(self):
        rho = np.array([0.4, 0.4, -0.4, 0.8, 0.1])
        sec = secular_eigenvalues(LoadingMatrix(rho[:, None]))
        tied = 1.0 - 0.16
        assert np.sum(np.isclose(sec.eigenvalues, tied, atol=1e-12)) == 2
        dense = np.linalg.eigvalsh(assemble_one_factor(rho))[::-1]
        assert np.max(np.abs(sec.eigenvalues - dense)) < 1e-10

    def test_rejects_invalid_loadings(self):
        with pytest.raises(ValidationError, match="not a valid correlation structure"):
            LoadingMatrix(np.array([0.5, 1.2])[:, None])

    @pytest.mark.parametrize("build, message", [
        (lambda: LoadingMatrix([0.5, 0.2]), r"rho must be an \(n_assets, n_factors\) matrix"),
        (lambda: LoadingMatrix(np.empty((0, 2))), r"rho must be an \(n_assets, n_factors\) matrix"),
        (lambda: LoadingMatrix([[0.5, math.inf]]), "loadings must be finite"),
        (lambda: LoadingMatrix([[0.8, 0.7]]),
         "not a valid correlation structure: row norm exceeds 1"),
        (lambda: Spectrum(np.ones((2, 2))), "eigenvalues must be a vector"),
        (lambda: Spectrum([2.0, math.nan]), "eigenvalues must be finite"),
        (lambda: Spectrum([1.0, 2.0]), "eigenvalues must be in descending order"),
        (lambda: loading_vector(ModelSpec.orthogonal_factors(4, [0.2, 0.1], 0.2), 2),
         "loading_vector requires a one-factor spec"),
        (lambda: secular_function(LoadingMatrix(np.full((3, 2), 0.5)), 2.0),
         "secular_function requires one-factor loadings"),
    ], ids=["matrix-1d", "matrix-empty", "matrix-inf", "matrix-row-norm", "spectrum-2d",
            "spectrum-nan",
            "spectrum-ascending", "loading-vector-two-factors",
            "secular-function-two-factors"])
    def test_value_types_refuse(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_trace_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lv = random_loadings(rng, int(rng.integers(2, 40)))
            sec = secular_eigenvalues(lv)
            n = lv.rho.size
            assert abs(sec.trace - n) < 1e-9 * n

    @given(st.lists(st.floats(min_value=-0.98, max_value=0.98), min_size=2, max_size=12))
    def test_property_matches_dense(self, rho):
        lv = LoadingMatrix(np.asarray(rho)[:, None])
        sec = secular_eigenvalues(lv).eigenvalues
        dense = np.linalg.eigvalsh(assemble_one_factor(lv.rho))[::-1]
        assert np.max(np.abs(sec - dense)) < 1e-8


class TestSecularStructure:
    def test_interlacing_and_monotone_f(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            lv = random_loadings(rng, n)  # continuous draws: no ties, no zeros
            z = np.sort(1.0 - lv.rho[:, 0]**2)
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
            lv = LoadingMatrix(rng.uniform(0.05, 0.95, int(rng.integers(2, 40)))[:, None])
            eigs = secular_eigenvalues(lv).eigenvalues
            assert eigs[1] < 1.0

    def test_positivity_when_loadings_admissible(self):
        eps = 1e-9
        lv = LoadingMatrix(np.array([1.0, math.sqrt(1 - eps), 0.5, 0.2])[:, None])
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
        lv = LoadingMatrix(np.full(n, math.sqrt(r2))[:, None])
        approx = np.sum(lv.rho**2)
        exact = secular_eigenvalues(lv).eigenvalues[0]
        assert exact - approx == pytest.approx(1 - r2, rel=1e-12)

    def test_market_sized_accuracy(self):
        rng = np.random.default_rng(8)
        rho = np.sqrt(rng.uniform(0.05, 0.29, 533))  # mean rho^2 ~ 0.17
        lv = LoadingMatrix(rho[:, None])
        approx = np.sum(lv.rho**2)
        exact = secular_eigenvalues(lv).eigenvalues[0]
        assert abs(approx - exact) / exact < 0.02

    def test_single_asset_breakdown(self):
        lv = LoadingMatrix(np.array([0.5])[:, None])
        assert np.sum(lv.rho**2) == pytest.approx(0.25)
        assert secular_eigenvalues(lv).eigenvalues[0] == pytest.approx(1.0)

    def test_bracketing_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lv = LoadingMatrix(rng.uniform(0.1, 0.95, int(rng.integers(2, 60)))[:, None])
            approx = np.sum(lv.rho**2)
            exact = secular_eigenvalues(lv).eigenvalues[0]
            assert approx <= exact + 1e-12
            assert exact <= approx + (1 - np.min(lv.rho**2)) + 1e-12


class TestReducedDeterminant:
    """The reduced determinant, a test oracle, against the secular roots."""

    def test_one_factor_reduction_vanishes_at_secular_roots(self):
        rng = np.random.default_rng(15)
        rho = rng.uniform(0.1, 0.9, 12)
        top = secular_eigenvalues(LoadingMatrix(rho[:, None])).eigenvalues[0]
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
        if perturbation == 0.0:
            assert roots[0] == roots[1]

    def test_all_zero_loadings(self):
        values = secular_eigenvalues(LoadingMatrix(np.zeros(6)[:, None])).eigenvalues
        assert values.size == 6
        assert np.max(np.abs(values - 1.0)) < 1e-15
        assert factor_eigenvalues(LoadingMatrix(np.zeros((6, 3)))).size == 0

    @given(loading_rows())
    @example(np.array([[0.0], [0.1640625]]))  # both eigenvalues 1, one on the dead pole 1
    @example(np.array([[1.0]]))               # a pole at 0
    def test_property_matches_dense_oracle(self, rho):
        dense = dense_loading_spectrum(rho)
        if rho.shape[1] == 1:
            spectrum = secular_eigenvalues(LoadingMatrix(rho)).eigenvalues
            assert np.max(np.abs(spectrum - dense)) < 1e-9
        roots = factor_eigenvalues(LoadingMatrix(rho))
        assert np.all(roots > 1.0)
        assert np.all(np.abs(roots - dense[:roots.size]) < 1e-9)
        assert np.all(dense[roots.size:] <= 1.0 + 1e-9)


def slicer_width(rho):
    """2 eps max(1, top): the width every slicer root is found to."""
    rho = np.asarray(rho).reshape(len(rho), -1)
    row_sq = np.minimum((rho**2).sum(axis=1), 1.0)
    return 2.0 * np.finfo(float).eps * max(1.0, np.max(1.0 - row_sq) + row_sq.sum())


class TestSlicerEdgeCases:
    """Inputs on which a Newton finish can go wrong, each against an oracle."""

    @pytest.mark.parametrize("rho", [
        [0.0, 0.1640625],                   # a root on the dead pole at 1, tied with another
        [1.0],                              # a pole at 0
        [math.sqrt(1.0 - 1e-9), 0.6, 0.2],  # a pole at 1e-9
    ], ids=["root-on-dead-pole", "pole-at-zero", "pole-near-zero"])
    def test_one_factor_matches_dense(self, rho):
        rho = np.array(rho)
        dense = dense_loading_spectrum(rho)
        spectrum = secular_eigenvalues(LoadingMatrix(rho[:, None])).eigenvalues
        assert np.max(np.abs(spectrum - dense)) < 1e-14
        roots = factor_eigenvalues(LoadingMatrix(rho[:, None]))
        assert roots.size == np.count_nonzero(dense > 1.0 + 1e-14)
        assert np.max(np.abs(roots - dense[:roots.size]), initial=0.0) < 1e-14

    def test_root_within_ulps_of_its_pole(self):
        # a loading of 1e-7 puts the top pole at 1 - 1e-14, and root 2 just
        # below it, within about 1e-14 (the secular function's other terms
        # sum to about 49 there)
        rho = np.random.default_rng(30).uniform(0.1, 0.9, 50)
        rho[17] = 1e-7
        spectrum = secular_eigenvalues(LoadingMatrix(rho[:, None])).eigenvalues
        assert np.max(np.abs(spectrum - dense_loading_spectrum(rho))) < 1e-13
        pole, width = 1.0 - rho[17] ** 2, slicer_width(rho)
        assert abs(spectrum[1] - pole) < 1e-14
        assert mp_eigenvalue_count(rho, spectrum[1] - width) >= 2
        assert mp_eigenvalue_count(rho, spectrum[1] + width) < 2

    def test_clustered_roots_match_mpmath(self):
        # poles 1e-9 and 1e-12 apart: every root within width of a 50-digit oracle
        rho = np.array([0.6, 0.6 + 1e-9, 0.6 + 2e-9, 0.6 - 1e-12, 0.3, 0.3 + 1e-10,
                        0.95, 0.1, 1e-7])
        spectrum = secular_eigenvalues(LoadingMatrix(rho[:, None])).eigenvalues
        assert np.all(np.abs(spectrum - mp_loading_spectrum(rho)) <= slicer_width(rho))

    def test_roots_isolated_late_end_within_width(self):
        # two tied rows of norm 4e-8 put poles 2e-15 below 1 and root 2 at
        # 1 + 1.4e-14: Newton steps crawl there, so the root must stop taking
        # them while the probes it has left can still bisect it to width
        rho = np.array([[-9.8876953806771484e-01, -1.4944832079805320e-01],
                        [4.4641195536478495e-01, -8.9482756221933013e-01],
                        [-9.8876953806761592e-01, -1.4944832079803824e-01],
                        [9.9687014419697484e-01, -7.9056407764978312e-02],
                        [0.0, 0.0],
                        [2.4594227001676726e-08, 3.4973120610590546e-08],
                        [2.4594227001676726e-08, 3.4973120610590546e-08]])
        roots = factor_eigenvalues(LoadingMatrix(rho))
        exact = mp_loading_spectrum(rho)
        assert roots.size == np.count_nonzero(exact > 1.0)
        assert np.all(np.abs(roots - exact[:roots.size]) <= slicer_width(rho))

    def test_roots_stay_in_their_interlacing_intervals(self):
        # distinct poles p_1 > p_2 > ...: root k lies in [p_k, p_{k-1}] (p_0 =
        # top), within width of where the exact count drops below k
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            rho = rng.uniform(0.05, 0.99, n) * rng.choice([-1.0, 1.0], n)
            roots = secular_eigenvalues(LoadingMatrix(rho[:, None])).eigenvalues
            poles = np.sort(1.0 - rho**2)[::-1]
            upper = np.concatenate(([poles[0] + np.sum(rho**2)], poles[:-1]))
            assert np.all((poles <= roots) & (roots <= upper))
            width = slicer_width(rho)
            for k, root in enumerate(roots, start=1):
                assert mp_eigenvalue_count(rho, root - width) >= k
                assert mp_eigenvalue_count(rho, root + width) < k


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
        spectrum = dense_eigenvalues(ScaleMatrix(np.eye(9)))
        assert np.array_equal(spectrum.eigenvalues, np.ones(9))

    def test_matches_equicorrelation_closed_form(self):
        matrix = assemble_one_factor(np.full(15, 0.55))
        spectrum = dense_eigenvalues(ScaleMatrix(matrix))
        closed = equicorrelation_eigenvalues(15, 0.55**2)
        assert np.max(np.abs(spectrum.eigenvalues - closed)) < 1e-10

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(23)
        raw = rng.normal(size=(8, 8))
        sym = 0.5 * (raw + raw.T)
        spectrum = dense_eigenvalues(ScaleMatrix(sym))
        assert spectrum.trace == pytest.approx(np.trace(sym), abs=1e-10)
        # LU-based determinant is independent of the symmetric eigensolver
        det_lu = np.linalg.det(sym)
        assert np.prod(spectrum.eigenvalues) == pytest.approx(det_lu, rel=1e-8)

    def test_asymmetric_input_rejected_at_type_boundary(self):
        with pytest.raises(ValidationError, match="symmetric"):
            ScaleMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]))
