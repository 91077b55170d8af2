"""eigencurves_from_panel streams the panel over time chunks, and
eigencurves_from_model streams the simulator's chunks with no panel built.

Its curves must equal the dense path's, which builds every scale in full:
aggregate_returns, then sample_correlation or sample_covariance, then
dense_eigenvalues.  The chunked comparisons shrink the chunk budget so that
each case spans at least three chunks.  A grid whose lcm fits the budget gets
chunks that are multiples of it; a grid such as 1..16 (lcm 720,720) gets
budget-sized chunks, and each tau carries its source's leftover sums across
them.  The model's curves must equal the curves of its simulated panel bit for
bit.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leadlag import (DataError, ModelSpec, ReturnPanel, aggregate_returns,
                     dense_eigenvalues, eigencurves_from_panel, moments, pipeline,
                     sample_correlation, sample_covariance, simulate_panel)
from leadlag.pipeline import (REFERENCE_ALPHA, REFERENCE_N_ASSETS, REFERENCE_STRENGTHS,
                              eigencurves_from_model)

DYADIC = (1, 2, 4, 8, 16, 32, 64, 128)
ONE_TO_16 = tuple(range(1, 17))


def dense_curves(panel, taus, top_k, kind):
    estimator = sample_correlation if kind == "correlation" else sample_covariance
    return np.array([dense_eigenvalues(estimator(aggregate_returns(panel, tau))).eigenvalues[:top_k]
                     for tau in taus])


def streamed_curves(panel, taus, top_k, kind):
    # covariance curves come from the engine eigencurves_from_panel drives, as
    # `leadlag spectrum --kind cov` takes them
    if kind == "correlation":
        curves = eigencurves_from_panel(panel, taus, top_k=top_k)
    else:
        curves = pipeline._eigencurves(moments._panel_chunks(panel.returns, taus), tuple(taus),
                                       top_k, kind, panel.asset_labels)
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
    (6, 128 * 40 + 77, DYADIC, 0.0, "covariance"),
])
def test_streamed_curves_match_dense(monkeypatch, n_assets, n_steps, taus, offset, kind):
    spec = ModelSpec.single_factor(n_assets, 0.3, 0.4, seed=n_steps)
    panel = simulate_panel(spec, n_steps)
    panel = ReturnPanel(panel.returns + offset)
    length = small_chunks(monkeypatch, panel, taus)
    if n_assets == 300:
        assert length < n_assets
    top_k = 3
    np.testing.assert_allclose(streamed_curves(panel, taus, top_k, kind),
                               dense_curves(panel, taus, top_k, kind), rtol=1e-10, atol=0)


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


@pytest.mark.parametrize("kind", ["correlation", "covariance"])
def test_single_chunk_base_sums_are_bit_exact(kind):
    # 2, 3, 5 and 11 are each summed straight from the base steps, as in the
    # dense path: fewer than 8 terms by strided adds, 11 by numpy's pairwise sum
    panel = simulate_panel(ModelSpec.single_factor(5, 0.3, 0.4, seed=3), 3001)
    taus = (1, 2, 3, 5, 11)
    first = streamed_curves(panel, taus, 5, kind)
    assert np.array_equal(first, dense_curves(panel, taus, 5, kind))
    assert np.array_equal(first, streamed_curves(panel, taus, 5, kind))


@pytest.mark.parametrize("taus, share", [(DYADIC, 1 / 4), (ONE_TO_16, 1 / 2)])
def test_peak_memory_is_a_fraction_of_the_panel(taus, share):
    # the 80 MiB panel spans five 16 MiB chunks, and is shorter than lcm(1..16)
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


def test_model_curves_peak_memory_is_a_fraction_of_the_panel():
    # the 279 MB panel is never built: a few 16 MiB chunks are
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


def test_curves_agree_across_blas_thread_counts():
    # bytes hold for one machine and BLAS thread count; across thread counts
    # LAPACK's eigensolve may move the last bits, so values agree to 1e-13
    runs = [subprocess.run([sys.executable, "-c", _CURVES_RUN], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                "PYTHONPATH": str(Path(moments.__file__).parents[1])},
                           timeout=120)
            for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    one, two = (np.array(json.loads(run.stdout)) for run in runs)
    assert one.shape == (2, 8)
    np.testing.assert_allclose(two, one, rtol=1e-13, atol=0)
