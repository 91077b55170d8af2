import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leadlag import (DataError, ModelSpec, ReturnPanel, ScaleMatrix,
                     ValidationError, aggregate_returns, attenuation,
                     dense_eigenvalues, factor_variance_sum, loading_matrix,
                     sample_correlation, sample_covariance, simulate_panel,
                     theoretical_correlation, theoretical_covariance)
from oracles import covariance_oracle, smoothing_accumulation

ALPHAS = [round(0.1 * k, 1) for k in range(1, 10)]


def random_spec(n, f, seed):
    rng = np.random.default_rng(seed)
    return ModelSpec(
        n, f,
        alpha=float(rng.uniform(0.05, 0.6)),
        sigma=rng.uniform(0.5, 2.0, n),
        factor_sigma=rng.uniform(0.5, 1.5, f),
        beta=rng.normal(0.0, 0.4, (n, f)),
        seed=seed,
    )


class TestFactorVarianceSum:
    @pytest.mark.parametrize("tau", [1, 2, 7, 128, 100_000])
    def test_memoryless(self, tau):
        assert factor_variance_sum(0.0, tau) == float(tau)

    def test_hand_value(self):
        # (2 * 0.75 - 2 * 0.5 * 0.75) / 0.75 = 1.0
        assert factor_variance_sum(0.5, 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_single_step_closed_form_vs_bruteforce(self, alpha):
        closed = factor_variance_sum(alpha, 1)
        assert closed == pytest.approx((1 - alpha) / (1 + alpha), rel=1e-13)
        brute = smoothing_accumulation(alpha, 1) * (1 - alpha) ** 2
        assert closed == pytest.approx(brute, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            factor_variance_sum(1.0, 4)
        with pytest.raises(ValidationError):
            factor_variance_sum(-0.2, 4)
        with pytest.raises(ValidationError):
            factor_variance_sum(0.3, 0)

    @given(st.floats(min_value=0.0, max_value=0.99),
           st.integers(min_value=1, max_value=4096))
    def test_positive(self, alpha, tau):
        assert factor_variance_sum(alpha, tau) > 0.0


class TestAttenuation:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unit_scale(self, alpha):
        assert attenuation(alpha, 1) == pytest.approx(1 - alpha**2, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_infinite_scale_exact(self, alpha):
        assert attenuation(alpha, math.inf) == (1 - alpha) ** 2

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_step_identity(self, alpha):
        # accumulated weight at tau=2 collapses to 2(1-alpha)
        assert attenuation(alpha, 2) == pytest.approx(1 - alpha, rel=1e-13)

    def test_memoryless_flat(self):
        for tau in (1, 3, 64, 9999):
            assert attenuation(0.0, tau) == 1.0

    def test_strictly_decreasing_in_tau(self):
        taus = np.arange(1, 1025)
        for alpha in np.arange(0.05, 0.96, 0.05):
            values = np.array([attenuation(float(alpha), int(t)) for t in taus])
            assert np.all(np.diff(values) < 0.0)
            assert values[0] == pytest.approx(1 - alpha**2, abs=1e-15)
            assert values[-1] > (1 - alpha) ** 2

    @pytest.mark.parametrize("alpha", ALPHAS + [0.95])
    def test_large_tau_limit_bound(self, alpha):
        # |attenuation - (1-a)^2| < 2a(1-a)^2 / ((1-a^2) tau), up to rounding
        tau = int(math.ceil(2 * alpha / ((1 - alpha**2) * 1e-7)))
        gap = attenuation(alpha, tau) - (1 - alpha) ** 2
        bound = 2 * alpha * (1 - alpha) ** 2 / ((1 - alpha**2) * tau)
        assert 0.0 < gap < bound * (1 + 1e-6)


class TestTheoreticalMoments:
    def test_no_factor_is_diagonal(self):
        spec = ModelSpec(4, 1, 0.3, [1.0, 2.0, 0.5, 1.5], 1.0, 0.0)
        cov = theoretical_covariance(spec, 8).values
        assert np.allclose(cov, 8 * np.diag(spec.sigma**2), atol=0, rtol=0)

    def test_uniform_one_factor_offdiagonal_matches_bruteforce(self):
        # the factor block is the accumulated smoothing weight times beta^2;
        # at alpha=0.5, tau=2 that weight is 4 (brute-force lag sum)
        beta = 0.3
        spec = ModelSpec(3, 1, 0.5, 1.0, 1.0, beta)
        cov = theoretical_covariance(spec, 2).values
        expected = beta**2 * smoothing_accumulation(0.5, 2)
        assert cov[0, 1] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4 * beta**2, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("tau", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_bruteforce_lag_sum_equivalence(self, alpha, tau):
        spec = ModelSpec(2, 1, alpha, 1.0, 1.0, 0.4)
        cov = theoretical_covariance(spec, tau).values
        brute = covariance_oracle(spec, tau)
        assert np.max(np.abs(cov - brute) / np.abs(brute)) < 1e-10

    def test_monte_carlo_two_factor(self):
        spec = random_spec(5, 2, seed=33)
        panel = simulate_panel(spec, 1_000_000)
        agg = aggregate_returns(panel, 4)
        sample = sample_covariance(agg).values
        theory = theoretical_covariance(spec, 4).values
        se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / agg.n_steps)
        assert np.max(np.abs(sample - theory) / se) < 3.0

    def test_correlation_identity_when_no_factor(self):
        spec = ModelSpec(5, 2, 0.4, 1.0, 1.0, 0.0)
        corr = theoretical_correlation(spec, 16).values
        assert np.array_equal(corr, np.eye(5))

    def test_correlation_equal_parameters_memoryless(self):
        gamma = 0.6
        spec = ModelSpec.single_factor(4, gamma, 0.0)
        corr = theoretical_correlation(spec, 9).values
        assert corr[0, 1] == pytest.approx(gamma / (1 + gamma), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_correlation_is_normalized_covariance(self, seed):
        # the normalized covariance against the loading route rho rho^T, also
        # with asset `seed` moved by no factor, whose loadings are exactly 0
        spec = random_spec(6, 2, seed)
        beta = spec.beta.copy()
        beta[seed] = 0.0
        no_factor = dataclasses.replace(spec, beta=beta)
        for model in (spec, no_factor):
            for tau in (1, 4, 32):
                rho = loading_matrix(model, tau).rho
                loadings = rho @ rho.T
                np.fill_diagonal(loadings, 1.0)
                corr = theoretical_correlation(model, tau).values
                assert np.max(np.abs(corr - loadings)) < 1e-12
        for tau in (1, 4, 32):
            assert np.array_equal(loading_matrix(no_factor, tau).rho[seed], [0.0, 0.0])

    def test_correlation_unit_diagonal_exact(self):
        spec = random_spec(7, 3, seed=9)
        corr = theoretical_correlation(spec, 5).values
        assert np.array_equal(np.diag(corr), np.ones(7))

    @pytest.mark.parametrize("seed", range(6))
    def test_correlation_is_positive_semidefinite(self, seed):
        # loadings from a valid spec always satisfy sum_f rho[i,f]^2 <= 1,
        # which keeps the correlation matrix PSD
        spec = random_spec(8, 2, seed)
        for tau in (1, 16):
            corr = theoretical_correlation(spec, tau).values
            assert np.linalg.eigvalsh(corr)[0] >= -1e-12


class TestAggregateReturns:
    def test_identity_at_one(self):
        panel = ReturnPanel(np.arange(12.0).reshape(3, 4))
        agg = aggregate_returns(panel, 1)
        assert np.array_equal(agg.returns, panel.returns)
        assert agg.base_scale == panel.base_scale

    def test_block_sum_and_remainder_drop(self):
        panel = ReturnPanel(np.arange(10.0)[None, :])
        agg = aggregate_returns(panel, 4)
        assert agg.returns.shape == (1, 2)
        assert agg.returns[0, 0] == sum(range(4))
        assert agg.returns[0, 1] == sum(range(4, 8))
        assert agg.base_scale == 4

    def test_all_ones(self):
        panel = ReturnPanel(np.ones((2, 40)))
        agg = aggregate_returns(panel, 8)
        assert np.array_equal(agg.returns, np.full((2, 5), 8.0))

    def test_scale_exceeds_length(self):
        panel = ReturnPanel(np.ones((2, 5)))
        with pytest.raises(DataError, match="scale exceeds series length"):
            aggregate_returns(panel, 6)

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=7, max_value=40))
    def test_total_sum_preserved_on_trimmed_region(self, tau, steps):
        rng = np.random.default_rng(steps * 10 + tau)
        panel = ReturnPanel(rng.normal(size=(2, steps)))
        agg = aggregate_returns(panel, tau)
        blocks = steps // tau
        assert np.allclose(agg.returns.sum(axis=1),
                           panel.returns[:, : blocks * tau].sum(axis=1), atol=1e-12)


class TestSampleMoments:
    def test_identical_rows_give_unit_correlation(self):
        row = np.random.default_rng(0).normal(size=24)
        panel = ReturnPanel(np.vstack([row, row, -row]))
        corr = sample_correlation(panel).values
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_two_point_anti_alignment(self):
        panel = ReturnPanel(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        corr = sample_correlation(panel).values
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_asset_is_named(self):
        panel = ReturnPanel(np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]),
                            asset_labels=("GOOD", "FLAT"))
        with pytest.raises(DataError, match="FLAT"):
            sample_correlation(panel)

    def test_needs_two_observations(self):
        panel = ReturnPanel(np.ones((2, 1)))
        with pytest.raises(DataError):
            sample_covariance(panel)

    def test_panel_of_no_assets(self):
        panel = ReturnPanel(np.zeros((0, 5)))
        assert sample_covariance(panel).values.shape == (0, 0)
        correlation = sample_correlation(panel)
        assert correlation.values.shape == (0, 0)
        assert dense_eigenvalues(correlation).eigenvalues.shape == (0,)

    def test_long_panel_converges_to_theoretical_correlation(self):
        spec = ModelSpec.single_factor(5, 0.4, 0.2, seed=77)
        panel = simulate_panel(spec, 400_000)
        sample = sample_correlation(panel).values
        theory = theoretical_correlation(spec, 1).values
        assert np.max(np.abs(sample - theory)) < 5.0 / math.sqrt(panel.n_steps)


class TestScaleMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="matrix must be square"):
            ScaleMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            ScaleMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
