"""Lead-lag factor model: parameterization and synthetic return-panel simulation.

Per-step returns follow

    r_i(t) = eps_i(t) + sum_f beta[i, f] * S_f(t),
    S_f(t) = R_f(t) + alpha * S_f(t - 1),

where eps_i(t) and R_f(t) are independent centered Gaussian innovations with
volatilities sigma[i] and factor_sigma[f], and 0 <= alpha < 1 sets the memory
decay of the lead-lag response.  The exponentially weighted state S_f carries
the full infinite-lag sum exactly (no truncation), so simulation cost is O(1)
per step.  A burn-in prefix long enough for the state to forget its zero
initialization is generated and discarded, which puts the emitted panel in the
stationary regime.

Draws come from counter-based Philox streams keyed by (seed, stream id), so
the streams are independent and the output is bit-reproducible for a given
spec.  The factor shocks use stream 1, the loadings that
`ModelSpec.orthogonal_factors` draws stream 2, and asset i's noise stream
3 + i.  Idiosyncratic noise carries no state, so it is drawn for the emitted
steps only, and each asset's stream runs on by itself: the assets are split
into one part per CPU, whose noise is drawn at once on threads, with the same
bytes.  A factor term is the elementwise sum over f, in order, of
beta[i, f] * S_f(t), so no cell depends on its neighbours and time slices of
the panel can be emitted in any block length, with the same bytes.

The recursion for S_f runs one step at a time in plain floating point, as the
direct-form IIR filter scipy.signal.lfilter runs it, so the panels carry that
filter's rounding.  Between chunks it carries the filter's state, alpha * S_f
of the last step, which the next chunk's first step adds unscaled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ValidationError, _alpha, _integer, _positive, _real, _reals

__all__ = [
    "ModelSpec",
    "ReturnPanel",
    "simulate_panel",
    "stationary_burn_in",
]

_FACTOR_STREAM = 1
_BETA_STREAM = 2
_ASSET_STREAM = 3  # asset i draws its noise from stream 3 + i
_CHUNK = 1 << 16  # factor shocks are drawn in chunks of this many steps
_SEED_MAX = 2**64 - 1


def _keyed_rng(seed: int, stream: int) -> np.random.Generator:
    # Philox keys are 128-bit; (seed, stream) pairs give independent streams.
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def _as_vector(values, length: int, name: str) -> np.ndarray:
    arr = _reals(values, name)
    if arr.ndim == 0:
        arr = np.full(length, float(arr))
    if arr.shape != (length,):
        raise ValidationError(f"{name} must be a scalar or a vector of length {length}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError(f"{name} entries must all be positive and finite")
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the lead-lag multi-factor model.

    Attributes
    ----------
    n_assets, n_factors : int
        Universe size N and number of common factors F.
    alpha : float
        Memory decay of the lead-lag response, 0 <= alpha < 1 (strict upper
        bound: the lag sum diverges at 1).
    sigma : (N,) array
        Idiosyncratic volatilities per base step, all positive.  Scalars
        broadcast.
    factor_sigma : (F,) array
        Factor volatilities per base step, all positive.  Scalars broadcast.
    beta : (N, F) array
        Sensitivity of each asset to each factor, finite entries.
    seed : int
        64-bit unsigned RNG seed.
    """

    n_assets: int
    n_factors: int
    alpha: float
    sigma: np.ndarray
    factor_sigma: np.ndarray
    beta: np.ndarray
    seed: int = 0

    def __post_init__(self):
        n = _integer(self.n_assets, "n_assets")
        f = _integer(self.n_factors, "n_factors")
        alpha = _alpha(self.alpha)
        sigma = _as_vector(self.sigma, n, "sigma")
        factor_sigma = _as_vector(self.factor_sigma, f, "factor_sigma")
        beta = _reals(self.beta, "beta")
        if beta.ndim == 0:
            beta = np.full((n, f), float(beta))
        if beta.ndim == 1 and f == 1 and beta.shape == (n,):
            beta = beta[:, None]
        if beta.shape != (n, f):
            raise ValidationError(f"beta must have shape ({n}, {f})")
        if not np.all(np.isfinite(beta)):
            raise ValidationError("beta entries must all be finite")
        seed = _integer(self.seed, "seed", minimum=0, maximum=_SEED_MAX)
        object.__setattr__(self, "n_assets", n)
        object.__setattr__(self, "n_factors", f)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "factor_sigma", factor_sigma)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def single_factor(cls, n_assets: int, gamma: float, alpha: float, *,
                      seed: int = 0) -> "ModelSpec":
        """One-factor spec with uniform signal-to-noise ratio gamma = beta^2 per
        asset: unit sigma and factor_sigma, so beta = sqrt(gamma)."""
        beta = math.sqrt(_positive(gamma, "gamma", allow_zero=True))
        return cls(n_assets, 1, alpha, 1.0, 1.0, beta, seed=seed)

    @classmethod
    def orthogonal_factors(cls, n_assets: int, gammas, alpha: float, *,
                           seed: int = 0) -> "ModelSpec":
        """Multi-factor spec whose factor-strength matrix is exactly diagonal.

        Sensitivity columns are random but mutually orthogonal, with column f
        scaled so the cross-sectional mean of (factor_sigma*beta/sigma)^2
        equals gammas[f].  Unit sigma and factor_sigma.
        """
        gammas = _reals(gammas, "gammas")
        if gammas.ndim != 1 or gammas.size < 1:
            raise ValidationError("gammas must be a nonempty vector")
        if np.any(gammas < 0):
            raise ValidationError("gammas must be nonnegative")
        n, f = _integer(n_assets, "n_assets"), gammas.size
        if f > n:
            raise ValidationError("cannot build more orthogonal factors than assets")
        rng = _keyed_rng(_integer(seed, "seed", minimum=0, maximum=_SEED_MAX), _BETA_STREAM)
        q, r = np.linalg.qr(rng.standard_normal((n, f)))
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
        beta = q * np.sqrt(n * gammas)[None, :]
        return cls(n, f, alpha, 1.0, 1.0, beta, seed=seed)


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"A{i:04d}" for i in range(n))


@dataclass(frozen=True)
class ReturnPanel:
    """Rectangular panel of returns: one row per asset, one column per step.

    `base_scale` is the bar length in base time units (minutes for the data
    this package targets); aggregation multiplies it.  Values are dimensionless
    decimal returns.  Treated as immutable after construction.
    """

    returns: np.ndarray
    base_scale: int = 1
    asset_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        arr = np.asarray(self.returns, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("returns must be a 2-D (assets x steps) array")
        if arr.shape[1] < 1:
            raise ValidationError("panel must contain at least one time step")
        # NaN propagates through min and max, and an infinity is an extreme,
        # so this needs no N x T mask; `initial` covers a panel of no assets
        if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
            raise ValidationError("panel entries must all be finite")
        scale = _integer(self.base_scale, "base_scale")
        labels = tuple(self.asset_labels) or _default_labels(arr.shape[0])
        if len(labels) != arr.shape[0]:
            raise ValidationError("asset_labels count must equal the number of rows")
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "base_scale", scale)
        object.__setattr__(self, "asset_labels", labels)

    @property
    def n_assets(self) -> int:
        return self.returns.shape[0]

    @property
    def n_steps(self) -> int:
        return self.returns.shape[1]


def stationary_burn_in(alpha: float, tolerance: float = 1e-15) -> int:
    """Smallest k with alpha**k < tolerance; 0 when alpha == 0.

    The lag depth beyond which the memory kernel is negligible at `tolerance`;
    at the default, the burn-in every simulation uses unless given one.
    """
    alpha = _alpha(alpha)
    if not 0.0 < _real(tolerance, "tolerance") < 1.0:
        raise ValidationError("tolerance must lie strictly inside (0, 1)")
    if alpha == 0.0:
        return 0
    k = max(int(math.ceil(math.log(tolerance) / math.log(alpha))), 0)
    # float log can be off by one in either direction; fix up exactly
    while alpha**k >= tolerance:
        k += 1
    while k > 0 and alpha ** (k - 1) < tolerance:
        k -= 1
    return k


def _checked_steps(spec: ModelSpec, n_steps, burn_in=None) -> tuple[int, int]:
    # a simulation's checked (n_steps, burn_in); burn_in defaults to stationary_burn_in(alpha)
    n_steps = _integer(n_steps, "n_steps")
    burn_in = stationary_burn_in(spec.alpha) if burn_in is None else burn_in
    return n_steps, _integer(burn_in, "burn_in", minimum=0)


def _smooth_factors(alpha: float, shocks: np.ndarray, state: np.ndarray):
    # S(t) = R(t) + alpha * S(t-1) along each row of the C-contiguous (F, T)
    # `shocks`, overwritten in place.  `state` (F, 1) follows lfilter's `zi`
    # convention: alpha * S of the step before the chunk, added unscaled to the
    # first step; the returned state is that of the chunk's last step.  The
    # memoryview and fromiter build no Python list as long as the chunk.
    def step(previous, shock):
        return shock + alpha * previous

    for row, incoming in zip(shocks, state[:, 0]):
        row[0] += incoming
        row[:] = np.fromiter(accumulate(memoryview(row), step), np.float64, row.size)
    return shocks, alpha * shocks[:, -1:]


def _add_noise(block, assets, sigma, rows, scratch):
    # add sigma[k] times the next draws of stream assets[k] to block[rows][k],
    # in pieces of scratch's length: consecutive draws equal one long draw
    for rng, scale, row in zip(assets, sigma, block[rows]):
        for lo in range(0, row.size, scratch.size):
            piece = scratch[:row.size - lo]
            rng.standard_normal(out=piece)
            piece *= scale
            row[lo:lo + piece.size] += piece


def _emitted_blocks(spec: ModelSpec, n_steps: int, burn_in: int, length: int):
    """Yield the (N, <= length) blocks of the n_steps emitted steps, in order,
    each a view of one buffer, which the next block overwrites.

    Asset i draws its noise from its own keyed stream from the first emitted
    step on.  The factor shocks are drawn in _CHUNK-step chunks from the first
    burn-in step on.  Each factor term is an elementwise sum over f of
    beta[i, f] * S_f(t), with no BLAS call, so no cell depends on `length`.

    The noise goes in P = min(CPUs, N, scratch length) parts of contiguous
    rows at once: part 0 in the calling thread, the others on one executor's
    threads, waited for before the block is yielded, so an exception in any
    part reaches the caller.  Part k draws into slice k of the one scratch
    row (at most _CHUNK steps), in pieces of its length.  A row's noise is
    its stream's next draws in order, so neither P nor the slices move a byte.
    """
    # only simulation needs the executor, which slows `import leadlag` by ~3%
    from concurrent.futures import ThreadPoolExecutor
    assets = [_keyed_rng(spec.seed, _ASSET_STREAM + i) for i in range(spec.n_assets)]
    rng_factor = _keyed_rng(spec.seed, _FACTOR_STREAM)
    buffer = np.empty((spec.n_assets, min(length, n_steps)))
    draws = np.empty(min(length, n_steps, _CHUNK))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_parts = min(cpus or 1, spec.n_assets, draws.size)
    cuts = [(spec.n_assets * k // n_parts, draws.size * k // n_parts) for k in range(n_parts + 1)]
    parts = [(assets[a:b], spec.sigma[a:b], slice(a, b), draws[c:d])
             for (a, c), (b, d) in zip(cuts, cuts[1:])]
    state = np.zeros((spec.n_factors, 1))
    factor_sigma = spec.factor_sigma[:, None]
    # the factor rows of the chunk that ends before emitted step `end`
    smoothed, end = None, -burn_in
    with ThreadPoolExecutor(max(n_parts - 1, 1)) as pool:
        for lo in range(0, n_steps, length):
            hi = min(lo + length, n_steps)
            block = buffer[:, :hi - lo]
            start = lo
            while start < hi:
                if start >= end:
                    smoothed = None  # free this chunk's rows before the next is drawn
                    smoothed = rng_factor.standard_normal(
                        (spec.n_factors, min(_CHUNK, n_steps - end)))
                    smoothed *= factor_sigma
                    smoothed, state = _smooth_factors(spec.alpha, smoothed, state)
                    end += smoothed.shape[1]
                    continue
                # the steps [start, stop) share one factor chunk
                stop = min(end, hi)
                first = start - end + smoothed.shape[1]
                np.einsum("if,ft->it", spec.beta, smoothed[:, first:first + stop - start],
                          out=block[:, start - lo:stop - lo])
                start = stop
            helpers = [pool.submit(_add_noise, block, *part) for part in parts[1:]]
            _add_noise(block, *parts[0])
            for helper in helpers:
                helper.result()
            yield block


def simulate_panel(spec: ModelSpec, n_steps: int, burn_in: int | None = None) -> ReturnPanel:
    """Simulate a stationary (N, n_steps) return panel from the model.

    Deterministic given (spec, n_steps, burn_in).  `burn_in` defaults to
    stationary_burn_in(alpha).  The panel is the simulator's one block,
    written in place; beyond it, the only memory it takes is F + 2 rows of a
    factor chunk: its F factor rows, one scratch row of draws and the
    recursion's one-row output.  The noise goes in P = min(CPUs, N, scratch
    length) parts, each drawn into its own slice of that row and each asset
    from its own stream, so the CPU count changes no byte.
    """
    n_steps, burn_in = _checked_steps(spec, n_steps, burn_in)
    (panel,) = _emitted_blocks(spec, n_steps, burn_in, n_steps)
    return ReturnPanel(panel)
