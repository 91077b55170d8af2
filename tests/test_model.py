import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import lfilter

from leadlag import (ModelSpec, ReturnPanel, ValidationError, sample_correlation,
                     simulate_panel, stationary_burn_in, theoretical_covariance)
from leadlag.model import _CHUNK, _TILE, _emitted_blocks, _smooth_factors
from leadlag.moments import _scale_covariances
from oracles import panel_from_innovations, smallest_power_below, truncated_convolution_panel


def one_factor(n=10, gamma=0.2, alpha=0.3, seed=0):
    return ModelSpec.single_factor(n, gamma, alpha, seed=seed)


class TestModelSpecValidation:
    def test_alpha_upper_bound_strict(self):
        with pytest.raises(ValidationError, match="alpha"):
            ModelSpec(5, 1, 1.0, 1.0, 1.0, 0.5)

    def test_alpha_negative(self):
        with pytest.raises(ValidationError, match="alpha"):
            ModelSpec(5, 1, -0.1, 1.0, 1.0, 0.5)

    def test_sigma_positive(self):
        with pytest.raises(ValidationError, match="sigma"):
            ModelSpec(3, 1, 0.2, [1.0, 0.0, 1.0], 1.0, 0.5)

    def test_factor_sigma_positive(self):
        with pytest.raises(ValidationError, match="factor_sigma"):
            ModelSpec(3, 1, 0.2, 1.0, -1.0, 0.5)

    def test_beta_shape(self):
        with pytest.raises(ValidationError, match="beta"):
            ModelSpec(3, 2, 0.2, 1.0, 1.0, np.ones((3, 3)))

    def test_beta_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            ModelSpec(2, 1, 0.2, 1.0, 1.0, [np.inf, 1.0])

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="seed"):
            ModelSpec(2, 1, 0.2, 1.0, 1.0, 0.5, seed=-1)

    def test_scalar_broadcast(self):
        spec = ModelSpec(4, 2, 0.1, 0.5, 2.0, 0.25)
        assert spec.sigma.shape == (4,)
        assert spec.factor_sigma.shape == (2,)
        assert spec.beta.shape == (4, 2)

    def test_orthogonal_factors_strengths_are_exact(self):
        from leadlag import factor_strength_matrix
        gammas = np.array([0.17, 0.03, 0.02, 0.01])
        spec = ModelSpec.orthogonal_factors(60, gammas, 0.16, seed=5)
        values = factor_strength_matrix(spec)
        assert isinstance(values, np.ndarray)
        assert np.allclose(values, np.diag(gammas), atol=1e-12)


class TestSimulatePanel:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValidationError, match="n_steps"):
            simulate_panel(one_factor(), 0)

    def test_deterministic_bit_identical(self):
        spec = one_factor(seed=123)
        a = simulate_panel(spec, 4096)
        b = simulate_panel(spec, 4096)
        assert np.array_equal(a.returns, b.returns)

    def test_seed_changes_output(self):
        a = simulate_panel(one_factor(seed=1), 256)
        b = simulate_panel(one_factor(seed=2), 256)
        assert not np.allclose(a.returns, b.returns)

    def test_no_factor_gives_near_identity_correlation(self):
        # all beta = 0: independent Gaussians, off-diagonals -> 0
        spec = ModelSpec(6, 1, 0.5, 1.0, 1.0, 0.0, seed=11)
        panel = simulate_panel(spec, 200_000)
        corr = sample_correlation(panel).values
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 5.0 / math.sqrt(panel.n_steps)

    def test_memoryless_model_has_no_lead_lag(self):
        # alpha = 0 reduces to the plain one-factor model: returns do not
        # respond to lagged factor shocks
        spec = ModelSpec.single_factor(5, 0.5, 0.0, seed=3)
        total = 400_000
        rng_e = np.random.Generator(np.random.Philox(key=42))
        rng_f = np.random.Generator(np.random.Philox(key=42 + (1 << 64)))
        idio = rng_e.standard_normal((5, total))
        shocks = rng_f.standard_normal((1, total))
        panel = panel_from_innovations(spec, idio, shocks)
        lagged = np.mean(panel[:, 1:] * shocks[0, :-1], axis=1)
        se = np.std(panel[:, 1:] * shocks[0, :-1], axis=1) / math.sqrt(total - 1)
        assert np.all(np.abs(lagged) < 5 * se)

    def test_mean_zero_long_run(self):
        spec = ModelSpec(4, 1, 0.0, 1.0, 1.0, 0.0, seed=8)
        panel = simulate_panel(spec, 1_000_000)
        means = panel.returns.mean(axis=1)
        assert np.all(np.abs(means) < 5.0 / math.sqrt(1_000_000))

    def test_monte_carlo_covariance_matches_closed_form(self):
        # N=10 one-factor (beta=0.5 -> gamma=0.25) at tau=1: each of the 55
        # unique entries of the sample covariance lies within 4.3 standard
        # errors of the closed form, a family-wise false-alarm rate near 1e-3.
        # The 320 MB panel is streamed into the estimator in blocks.
        spec = one_factor(n=10, gamma=0.25, alpha=0.3, seed=23)
        n_obs = 4_000_000
        blocks = _emitted_blocks(spec, n_obs, stationary_burn_in(spec.alpha, 1e-15), 1 << 16)
        sample = _scale_covariances(blocks, (1,))[0]
        theory = theoretical_covariance(spec, 1).values
        se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / n_obs)
        upper = np.triu_indices(spec.n_assets)
        assert np.max(np.abs(sample - theory)[upper] / se[upper]) < 4.3

    def test_stationarity_first_and_second_half_agree(self):
        spec = one_factor(n=6, gamma=0.3, alpha=0.4, seed=17)
        panel = simulate_panel(spec, 400_000)
        half = panel.n_steps // 2
        first = np.cov(panel.returns[:, :half])
        second = np.cov(panel.returns[:, half:])
        theory = theoretical_covariance(spec, 1).values
        se_one = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / half)
        # difference of two independent estimates: combined SE is sqrt(2) larger
        assert np.max(np.abs(first - second) / (math.sqrt(2) * se_one)) < 5.0

    def test_recursive_state_matches_truncated_convolution(self):
        spec = ModelSpec.single_factor(5, 0.3, 0.45, seed=9)
        depth = stationary_burn_in(0.45, 1e-15)
        total = 10_000 + depth
        rng_e = np.random.Generator(np.random.Philox(key=5))
        rng_f = np.random.Generator(np.random.Philox(key=6))
        idio = rng_e.standard_normal((5, total))
        shocks = rng_f.standard_normal((1, total))
        recursive = panel_from_innovations(spec, idio[:, depth:], shocks, burn_in=depth)
        truncated = truncated_convolution_panel(spec, idio, shocks, depth)[:, depth:]
        assert np.max(np.abs(recursive - truncated)) < 1e-12

    def test_burn_in_discards_transient(self):
        # with burn-in, the first emitted step already carries the stationary
        # factor state; with burn_in=0 it cannot (state starts at zero)
        spec = one_factor(n=2, gamma=50.0, alpha=0.9, seed=4)
        with_burn = simulate_panel(spec, 8)
        without = simulate_panel(spec, 8, burn_in=0)
        assert not np.allclose(with_burn.returns, without.returns)

    def test_chunking_is_invisible(self):
        # across two factor-chunk borders the production simulator equals the
        # one-piece assembly of the same keyed Philox draws: each asset's noise
        # in one draw from its own stream 3 + i, from the first emitted step,
        # and the factor shocks from stream 1, chunk by chunk from the first
        # burn-in step
        chunk = 1 << 16
        cases = [(1, 0.25, 2), (2, 0.25, 2), (4, 0.25, 2),
                 # burn-in 69,061 > one chunk: chunk 0 is all burn-in, chunk 1 partly
                 (1, 0.9995, 1)]
        for n_factors, alpha, extra_chunks in cases:
            beta = np.array([[0.4, -0.3, 0.8, -0.1],
                             [0.2, 0.1, -0.5, 0.3],
                             [0.6, 0.5, 0.2, -0.7]])[:, :n_factors]
            spec = ModelSpec(3, n_factors, alpha, [1.0, 0.5, 2.0],
                             [1.5, 0.7, 0.3, 2.2][:n_factors], beta, seed=31)
            n_steps = extra_chunks * chunk + 123
            burn = stationary_burn_in(spec.alpha, 1e-15)
            sizes = [min(chunk, burn + n_steps - start)
                     for start in range(0, burn + n_steps, chunk)]
            idio = (np.vstack([np.random.Generator(np.random.Philox(key=31 + ((3 + i) << 64)))
                               .standard_normal(n_steps) for i in range(3)])
                    * spec.sigma[:, None])
            rng_f = np.random.Generator(np.random.Philox(key=31 + (1 << 64)))
            shocks = (np.hstack([rng_f.standard_normal((n_factors, k)) for k in sizes])
                      * spec.factor_sigma[:, None])
            expected = panel_from_innovations(spec, idio, shocks, burn_in=burn)
            assert len(sizes) == 3
            assert np.array_equal(simulate_panel(spec, n_steps).returns, expected)

    @pytest.mark.parametrize("n_factors", [1, 4])
    def test_block_length_is_invisible(self, n_factors):
        # blocks of 7 and of 997 steps, whose edges fall beside the factor
        # chunks' (the burn-in is 69,061 steps), and of 100,000 steps, which
        # span three chunks, give simulate_panel's bytes
        spec = ModelSpec(5, n_factors, 0.9995, np.linspace(0.5, 2.0, 5),
                         [1.5, 0.7, 0.3, 2.2][:n_factors],
                         np.linspace(-0.7, 0.8, 5 * n_factors).reshape(5, n_factors), seed=8)
        n_steps = 2 * (1 << 16) + 123
        burn = stationary_burn_in(spec.alpha, 1e-15)
        expected = simulate_panel(spec, n_steps).returns
        for length in (7, 997, 100_000):
            blocks = [block.copy() for block in _emitted_blocks(spec, n_steps, burn, length)]
            assert {block.shape[1] for block in blocks[:-1]} == {length}
            assert np.array_equal(np.hstack(blocks), expected)

    @pytest.mark.parametrize("n_factors", [1, 3])
    def test_peak_memory_is_the_panel(self, n_factors):
        # beyond the panel: a chunk's F factor rows, one row of draws, the
        # recursion's one-row output and an (N, _TILE) tile, plus under half a
        # row of slack.  A narrow panel makes these the whole excess, so a
        # factor chunk kept alive while the next is drawn (2F + 1 rows) fails
        # for F > 1
        spec = ModelSpec(4, n_factors, 0.3, 1.0, 1.0, 0.2, seed=1)
        simulate_panel(spec, 1)  # the first simulation imports numpy.random
        tracemalloc.start()
        try:
            panel = simulate_panel(spec, 1 << 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = _CHUNK * 8
        excess = peak - panel.returns.nbytes
        assert excess < (n_factors + 2.5) * row + spec.n_assets * _TILE * 8


class TestPanelFromInnovations:
    # the oracle of tests/oracles.py refuses misshapen draws
    @pytest.mark.parametrize("idio", [np.zeros(5), np.float64(0)], ids=["1-D", "0-D"])
    def test_idio_must_be_2d(self, idio):
        with pytest.raises(ValidationError, match="idio"):
            panel_from_innovations(one_factor(n=3), idio, np.zeros((1, 5)))

    @pytest.mark.parametrize("shocks", [np.zeros(5), np.float64(0)], ids=["1-D", "0-D"])
    def test_shocks_must_be_2d(self, shocks):
        with pytest.raises(ValidationError, match="shocks"):
            panel_from_innovations(one_factor(n=3), np.zeros((3, 5)), shocks)

    def test_caller_arrays_are_unchanged(self):
        # the recursion runs in place on a copy of the shocks
        rng = np.random.default_rng(3)
        idio, shocks = rng.standard_normal((3, 50)), rng.standard_normal((1, 60))
        before = idio.copy(), shocks.copy()
        panel_from_innovations(one_factor(n=3), idio, shocks, burn_in=10)
        assert np.array_equal(idio, before[0]) and np.array_equal(shocks, before[1])


@pytest.mark.parametrize("alpha", [0.0, 0.16, 0.9995, 1 - 1e-6])
@pytest.mark.parametrize("n_factors", [1, 4])
def test_smooth_factors_is_lfilter_bit_for_bit(alpha, n_factors):
    # rows and returned state, from a nonzero incoming state and through two
    # chunks chained by the state
    rng = np.random.default_rng(17)
    shocks = rng.standard_normal((n_factors, 5000))
    state = rng.standard_normal((n_factors, 1))
    first, middle = _smooth_factors(alpha, shocks[:, :3000].copy(), state)
    expected, expected_middle = lfilter([1.0], [1.0, -alpha], shocks[:, :3000], zi=state)
    assert first.tobytes() == expected.tobytes()
    assert middle.tobytes() == expected_middle.tobytes()
    second, last = _smooth_factors(alpha, shocks[:, 3000:].copy(), middle)
    whole, expected_last = lfilter([1.0], [1.0, -alpha], shocks, zi=state)
    assert np.hstack([first, second]).tobytes() == whole.tobytes()
    assert last.tobytes() == expected_last.tobytes()


class TestReturnPanel:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_last_cell(self, value):
        returns = np.ones((3, 4))
        returns[-1, -1] = value
        with pytest.raises(ValidationError, match="panel entries must all be finite"):
            ReturnPanel(returns)

    def test_accepts_panel_of_no_assets(self):
        assert ReturnPanel(np.empty((0, 5))).n_steps == 5


class TestStationaryBurnIn:
    def test_zero_alpha(self):
        assert stationary_burn_in(0.0, 1e-12) == 0

    def test_hand_example(self):
        # 0.5**3 = 0.125 < 0.25 while 0.5**2 = 0.25 is not
        assert stationary_burn_in(0.5, 0.25) == 3

    def test_against_integer_search_oracle(self):
        for alpha in (0.16, 0.5, 0.9, 0.99):
            for tol in (1e-12, 1e-15, 0.3):
                assert stationary_burn_in(alpha, tol) == smallest_power_below(alpha, tol)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 1.5, -0.2])
    def test_tolerance_domain(self, tol):
        with pytest.raises(ValidationError, match="tolerance"):
            stationary_burn_in(0.5, tol)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=1e-15, max_value=0.5))
    def test_definition_holds(self, alpha, tol):
        k = stationary_burn_in(alpha, tol)
        assert alpha**k < tol
        if k > 0:
            assert alpha ** (k - 1) >= tol
