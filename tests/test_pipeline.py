"""eigencurves_from_panel streams the panel over time chunks, and
eigencurves_from_model streams the simulator's chunks with no panel built.

Its curves must equal the dense path's, which builds every scale in full:
aggregate_returns, then sample_correlation, then dense_eigenvalues; and the
covariances of its accumulator, moments._ScaleMoments, must equal
sample_covariance's to rounding.  The chunked comparisons shrink the chunk budget so that
each case spans at least three chunks.  A grid whose lcm fits the budget gets
chunks that are multiples of it; a grid such as 1..16 (lcm 720,720) gets
budget-sized chunks, and each tau carries its source's leftover sums across
them.  The model's curves must equal the curves of its simulated panel bit for
bit.
"""

import json
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag import (DataError, ModelSpec, ReturnPanel, aggregate_returns,
                     dense_eigenvalues, eigencurves_from_panel, moments, pipeline,
                     sample_correlation, sample_covariance, simulate_panel)
from leadlag.model import _emitted_blocks, stationary_burn_in
from leadlag.pipeline import (REFERENCE_ALPHA, REFERENCE_N_ASSETS, REFERENCE_STRENGTHS,
                              eigencurves_from_model)

DYADIC = (1, 2, 4, 8, 16, 32, 64, 128)
ONE_TO_16 = tuple(range(1, 17))


def dense(panel, taus, top_k, kind):
    # per scale, the top-k correlation eigenvalues or the covariance matrix
    if kind == "covariance":
        return np.array([sample_covariance(aggregate_returns(panel, tau)).values for tau in taus])
    return np.array([dense_eigenvalues(sample_correlation(aggregate_returns(panel, tau)))
                     .eigenvalues[:top_k] for tau in taus])


def streamed(panel, taus, top_k, kind):
    # the same from the engine: its curves, or the covariances of its
    # accumulator fed the panel's chunks as eigencurves_from_panel feeds them
    if kind == "covariance":
        length = moments._chunk_length(panel.n_assets, taus)
        return np.array(accumulated(moments._panel_chunks(panel.returns, length), taus)[0])
    curves = eigencurves_from_panel(panel, taus, top_k=top_k)
    return np.column_stack([curve.values for curve in curves])


def small_chunks(monkeypatch, panel, taus, steps=200):
    # a budget of `steps` base steps; the engine rounds it down to a multiple
    # of lcm(taus) where one fits
    monkeypatch.setattr(moments, "_CHUNK_BYTES", 8 * panel.n_assets * steps)
    length = moments._chunk_length(panel.n_assets, taus)
    assert math.ceil(panel.n_steps / length) >= 3
    return length


@pytest.mark.parametrize("n_assets, n_steps, taus, offset, kind", [
    (6, 128 * 40 + 77, DYADIC, 0.0, "correlation"),      # T not a multiple of 128
    (6, 60 * 50 + 7, (1, 3, 10, 12), 0.0, "correlation"),  # lcm 60, max 12
    (6, 3000 + 11, ONE_TO_16, 0.0, "correlation"),        # lcm beyond the chunk
    (6, 4000 + 13, (1, 2, 4, 8), 1e3, "correlation"),     # large common mean
    (300, 1000, DYADIC, 0.0, "correlation"),              # more assets than chunk steps
    (6, 128 * 40 + 77, DYADIC, 0.0, "covariance"),         # the accumulator's own output
])
def test_streamed_curves_match_dense(monkeypatch, n_assets, n_steps, taus, offset, kind):
    spec = ModelSpec.single_factor(n_assets, 0.3, 0.4, seed=n_steps)
    panel = simulate_panel(spec, n_steps)
    panel = ReturnPanel(panel.returns + offset)
    length = small_chunks(monkeypatch, panel, taus)
    if n_assets == 300:
        assert length < n_assets
    top_k = 3
    np.testing.assert_allclose(streamed(panel, taus, top_k, kind),
                               dense(panel, taus, top_k, kind), rtol=1e-10, atol=0)


def test_no_chunk_is_held_through_the_eigensolves(monkeypatch):
    # the last chunk of the model's pass is the simulator's buffer: the engine
    # lets it go before the first eigensolve
    alive = []

    def source(length):
        for seed in range(3):
            chunk = np.random.default_rng(seed).standard_normal((4, 50))
            alive.append(weakref.ref(chunk))
            yield chunk

    def eigensolve(matrix):
        assert len(alive) == 3 and not [ref for ref in alive if ref() is not None]
        return dense_eigenvalues(matrix)

    monkeypatch.setattr(pipeline, "dense_eigenvalues", eigensolve)
    assert len(pipeline._eigencurves(source, ("a", "b", "c", "d"), (1, 2), 2)) == 2


def test_zero_variance_asset_is_named(monkeypatch):
    rng = np.random.default_rng(5)
    returns = rng.normal(size=(4, 2000))
    returns[2] = 0.5
    panel = ReturnPanel(returns, asset_labels=("A", "B", "DEAD", "C"))
    small_chunks(monkeypatch, panel, DYADIC)
    with pytest.raises(DataError) as dense:
        sample_correlation(panel)
    with pytest.raises(DataError) as streamed:
        eigencurves_from_panel(panel, DYADIC, top_k=1)
    assert str(streamed.value) == str(dense.value)
    assert "'DEAD'" in str(streamed.value)


@pytest.mark.parametrize("seed", range(5))
def test_collinear_assets_are_a_data_error(seed):
    # four random assets and their sum: the fifth eigenvalue is zero to
    # rounding at every scale, on either side of zero, and refused at the first
    x = np.random.default_rng(seed).normal(size=(4, 4096))
    panel = ReturnPanel(np.vstack([x, x.sum(axis=0)]))
    assert len(eigencurves_from_panel(panel, (1, 2, 4, 8), top_k=4)) == 4
    with pytest.raises(DataError, match=r"^eigenvalue 5 at tau=1 is zero to rounding"):
        eigencurves_from_panel(panel, (1, 2, 4, 8), top_k=5)


def scaled_error(cov, oracle):
    # the largest entry of |cov - oracle| / (sd_i sd_j), the oracle's sds
    sd = np.sqrt(np.diag(oracle))
    return np.max(np.abs(cov - oracle) / np.outer(sd, sd))


@pytest.mark.parametrize("kind", ["correlation", "covariance"])
def test_single_chunk_matches_the_dense_path_to_rounding(kind):
    # 2, 3, 5 and 11 are summed straight from the base steps, but the engine
    # shifts every block by one base shift and takes tau = 1's cross-product
    # from its heir 2: so not the dense bytes, only the property test's 1e-12;
    # a second run gives the same bytes
    panel = simulate_panel(ModelSpec.single_factor(5, 0.3, 0.4, seed=3), 3001)
    taus = (1, 2, 3, 5, 11)
    first, oracle = streamed(panel, taus, 5, kind), dense(panel, taus, 5, kind)
    if kind == "covariance":
        assert max(scaled_error(cov, dense_cov) for cov, dense_cov in zip(first, oracle)) <= 1e-12
    else:
        np.testing.assert_allclose(first, oracle, rtol=1e-12, atol=0)
    assert np.array_equal(first, streamed(panel, taus, 5, kind))


def accumulated(chunks, *grids):
    # the covariances of one accumulator per grid, each given every chunk as it comes
    scales = [moments._ScaleMoments(taus) for taus in grids]
    for chunk in chunks:
        for scale in scales:
            scale.add(chunk)
    return [scale.covariances(2) for scale in scales]


def test_two_accumulators_on_one_stream_are_two_passes():
    # both take each simulator block before the next overwrites the buffer;
    # 1024-step chunks are a multiple of 128 but not of lcm(1..16), so the
    # second grid carries tails across them
    spec = ModelSpec.single_factor(6, 0.3, 0.4, seed=1)
    blocks = partial(_emitted_blocks, spec, 5000 + 77, stationary_burn_in(spec.alpha), 1024)
    together = accumulated(blocks(), DYADIC, ONE_TO_16)
    apart = [accumulated(blocks(), taus)[0] for taus in (DYADIC, ONE_TO_16)]
    assert [[cov.tobytes() for cov in covs] for covs in together] == [
        [cov.tobytes() for cov in covs] for covs in apart]


@pytest.mark.parametrize("taus", [DYADIC, ONE_TO_16])
def test_engine_covariances_are_exactly_symmetric(taus):
    # nothing symmetrizes them: each entry of the added x @ x.T and of the
    # final sum @ sum.T comes back equal to its mirror, over several chunks of
    # either kind of source, a panel's views and the simulator's blocks
    spec = ModelSpec.single_factor(100, 0.3, 0.4, seed=2)
    n_steps = 5000 + 77
    panel = simulate_panel(spec, n_steps)
    for chunks in (moments._panel_chunks(panel.returns, 1024),
                   _emitted_blocks(spec, n_steps, stationary_burn_in(spec.alpha), 1024)):
        for cov in accumulated(chunks, taus)[0]:
            assert np.array_equal(cov, cov.T)


GRIDS = st.one_of(  # dyadic, arbitrary, and with an lcm beyond every chunk
    st.integers(1, 7).map(lambda k: DYADIC[:k + 1]),
    st.lists(st.integers(1, 24), min_size=1, max_size=5, unique=True).map(sorted),
    st.sampled_from([ONE_TO_16, (1, 5, 7, 9, 11)]))


@settings(derandomize=True)
@given(taus=GRIDS, n_assets=st.integers(2, 12), extra=st.integers(0, 1500),
       parts=st.integers(1, 64), offset=st.floats(-1e3, 1e3), jump=st.floats(0.0, 1e4),
       seed=st.integers(0, 2**32 - 1))
def test_shifted_totals_match_the_dense_covariance(taus, n_assets, extra, parts, offset,
                                                   jump, seed):
    # each scale's shift is the mean of its first blocks.  After the first
    # chunk, at least 1/64 of the steps, every asset's mean moves by up to
    # `jump` sd, so the totals grow far beyond the covariance they must give:
    # they lose about eps / (that share) of it.  Returns lie on a grid of 2^-20
    # (times a power of two per asset), so every block sum is exact in any order
    # and the bound measures the totals alone, not the cascade's rounding.
    taus = tuple(taus)
    rng = np.random.default_rng(seed)
    n_steps = 2 * taus[-1] + extra
    chunk = -(-n_steps // parts)
    returns = (rng.normal(size=(n_assets, n_steps)) + rng.normal(size=n_steps)) / math.sqrt(2)
    returns += offset
    returns[:, chunk:] += jump * rng.uniform(-1.0, 1.0, size=(n_assets, 1))
    returns = np.round(returns * 2**20) * 2.0 ** rng.integers(-28, -11, size=(n_assets, 1))
    panel = ReturnPanel(returns)
    covs = accumulated(moments._panel_chunks(returns, chunk), taus)[0]
    for tau, cov in zip(taus, covs):
        oracle = sample_covariance(aggregate_returns(panel, tau)).values
        sd = np.sqrt(np.diag(oracle))
        assert np.max(np.abs(cov - oracle) / np.outer(sd, sd)) <= 1e-12, tau


def test_every_derived_scale_folds_in_its_orphan_blocks():
    # 1 takes its cross-product from 3 (Helmert contrasts, ratio 3) and 3 from
    # 15 (ratio 5); 2 * 15 * 40 + 14 steps leave 2 base steps after the last
    # 3-block and 4 3-blocks after the last 15-block, which enter only as the
    # heirs' last tails, over 4 chunks of up to 401 steps that split groups of
    # either ratio.  Offset returns on a 2^-20 grid: every block sum is exact.
    taus = (1, 3, 15)
    rng = np.random.default_rng(7)
    returns = rng.normal(size=(5, 2 * 15 * 40 + 14)) + rng.normal(size=2 * 15 * 40 + 14)
    returns = np.round((returns + 10.0) * 2**20) / 2**20
    scales = moments._ScaleMoments(taus)
    for chunk in moments._panel_chunks(returns, 401):
        scales.add(chunk)
    assert scales.heirs == {1: 3, 3: 15}
    assert {heir: scales.tails[heir].shape[1] for heir in (3, 15)} == {3: 2, 15: 4}
    first = scales.covariances(2)
    for tau, cov in zip(taus, first):
        oracle = sample_covariance(aggregate_returns(ReturnPanel(returns), tau)).values
        assert scaled_error(cov, oracle) <= 1e-12, tau
    assert [cov.tobytes() for cov in scales.covariances(2)] == [cov.tobytes() for cov in first]


def test_chunk_length_on_the_dyadic_ladder():
    # 12,000 steps bind at 64 and 100 assets (cli-csv and long-panel), and the
    # 16 MiB budget at 533 (reproduce); each rounds down to a multiple of 128
    assert [moments._chunk_length(n, DYADIC) for n in (64, 100, 533)] == [
        11_904, 11_904, 3_840]


@pytest.mark.parametrize("taus, share", [(DYADIC, 1 / 4), (ONE_TO_16, 1 / 2)])
def test_peak_memory_is_a_fraction_of_the_panel(taus, share):
    # the 80 MiB panel spans 45 chunks of 11,904 steps (1.8 MiB), or 44 of
    # 12,000 steps under lcm(1..16), which exceeds the panel's length
    panel = ReturnPanel(np.random.default_rng(0).normal(size=(20, 1 << 19)))
    tracemalloc.start()
    try:
        eigencurves_from_panel(panel, taus, top_k=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < panel.returns.nbytes * share


# reproduce's spec and length: 533 assets and 4 factors over 65,536 steps, of
# which the last 19 fall in the second factor chunk
REPRODUCE_SPEC = ModelSpec.orthogonal_factors(REFERENCE_N_ASSETS, REFERENCE_STRENGTHS,
                                              REFERENCE_ALPHA, seed=0)
REPRODUCE_STEPS = 1 << 16


def test_model_curves_are_the_panel_curves_bit_for_bit():
    streamed = eigencurves_from_model(REPRODUCE_SPEC, REPRODUCE_STEPS)
    from_panel = eigencurves_from_panel(simulate_panel(REPRODUCE_SPEC, REPRODUCE_STEPS))
    assert [c.rank for c in streamed] == [c.rank for c in from_panel] == [1, 2, 3, 4]
    for a, b in zip(streamed, from_panel):
        assert a.taus.tobytes() == b.taus.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


def test_model_and_panel_refuse_the_same_short_scales():
    # 256 steps leave 4 blocks at tau = 64, too few for a rank-4 eigenvalue
    spec = ModelSpec.single_factor(8, 0.3, 0.2, seed=0)
    message = r"^aggregation scale\(s\) exceed usable series length: 64, 128$"
    with pytest.raises(DataError, match=message):
        eigencurves_from_model(spec, 256, top_k=4)
    with pytest.raises(DataError, match=message):
        eigencurves_from_panel(simulate_panel(spec, 256), top_k=4)
    assert len(eigencurves_from_model(spec, 256, top_k=1)) == 1


def test_model_curves_peak_memory_is_a_fraction_of_the_panel():
    # the 279 MB panel is never built: a few chunks of 3,840 steps (16 MiB) are
    tracemalloc.start()
    try:
        eigencurves_from_model(REPRODUCE_SPEC, REPRODUCE_STEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < REFERENCE_N_ASSETS * REPRODUCE_STEPS * 8 / 4


_CURVES_RUN = """
import json
from leadlag import ModelSpec
from leadlag.pipeline import eigencurves_from_model
curves = eigencurves_from_model(ModelSpec.single_factor(100, 0.2, 0.2, seed=0), 1 << 15, top_k=2)
print(json.dumps([curve.values.tolist() for curve in curves]))
"""


def test_curves_agree_across_blas_thread_counts(run_python):
    # bytes hold for one machine and BLAS thread count; across thread counts
    # LAPACK's eigensolve may move the last bits, so values agree to 1e-13
    runs = [run_python("-c", _CURVES_RUN, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    one, two = (np.array(json.loads(run.stdout)) for run in runs)
    assert one.shape == (2, 8)
    np.testing.assert_allclose(two, one, rtol=1e-13, atol=0)
