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
the asset-noise and factor-noise streams are independent and the output is
bit-reproducible for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import ValidationError, _alpha, _integer

__all__ = [
    "ModelSpec",
    "ReturnPanel",
    "simulate_panel",
    "panel_from_innovations",
    "stationary_burn_in",
]

_EPS_STREAM = 0
_FACTOR_STREAM = 1
_BETA_STREAM = 2
_CHUNK = 1 << 16  # fixed so chunked generation is reproducible
_SEED_MAX = 2**64 - 1


def _keyed_rng(seed: int, stream: int) -> np.random.Generator:
    # Philox keys are 128-bit; (seed, stream) pairs give independent streams.
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def _as_vector(values, length: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(length, float(arr))
    if arr.shape != (length,):
        raise ValidationError(f"{name} must be a scalar or a vector of length {length}")
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
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
            raise ValidationError("sigma entries must all be positive and finite")
        factor_sigma = _as_vector(self.factor_sigma, f, "factor_sigma")
        if not np.all(np.isfinite(factor_sigma)) or np.any(factor_sigma <= 0):
            raise ValidationError("factor_sigma entries must all be positive and finite")
        beta = np.asarray(self.beta, dtype=np.float64)
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
                      sigma: float = 1.0, factor_sigma: float = 1.0,
                      seed: int = 0) -> "ModelSpec":
        """One-factor spec with uniform signal-to-noise ratio gamma.

        gamma = (factor_sigma * beta / sigma)^2 per asset, so beta is derived
        as sigma * sqrt(gamma) / factor_sigma.
        """
        if gamma < 0:
            raise ValidationError("gamma must be nonnegative")
        beta = float(sigma) * math.sqrt(gamma) / float(factor_sigma)
        return cls(n_assets, 1, alpha, sigma, factor_sigma, beta, seed=seed)

    @classmethod
    def orthogonal_factors(cls, n_assets: int, gammas, alpha: float, *,
                           seed: int = 0) -> "ModelSpec":
        """Multi-factor spec whose factor-strength matrix is exactly diagonal.

        Sensitivity columns are random but mutually orthogonal, with column f
        scaled so the cross-sectional mean of (factor_sigma*beta/sigma)^2
        equals gammas[f].  Unit sigma and factor_sigma.
        """
        gammas = np.asarray(gammas, dtype=np.float64)
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
        if not np.all(np.isfinite(arr)):
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


def stationary_burn_in(alpha: float, tolerance: float) -> int:
    """Smallest k with alpha**k < tolerance; 0 when alpha == 0.

    This is the lag depth beyond which the memory kernel is negligible at the
    given tolerance, hence a sufficient burn-in length.
    """
    alpha = _alpha(alpha)
    if not 0.0 < tolerance < 1.0:
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


def _smooth_factors(alpha: float, shocks: np.ndarray, state: np.ndarray):
    # S(t) = R(t) + alpha * S(t-1), continued across chunks via lfilter state
    return lfilter([1.0], [1.0, -alpha], shocks, axis=1, zi=state)


def panel_from_innovations(spec: ModelSpec, idio: np.ndarray, shocks: np.ndarray,
                           burn_in: int = 0) -> ReturnPanel:
    """Assemble a panel from explicit innovation draws.

    `idio` is (N, T) idiosyncratic noise (already scaled by sigma), `shocks`
    is (F, T) factor innovations (already scaled by factor_sigma).  The first
    `burn_in` columns are consumed by the recursion and dropped from the
    output.  Exposed so alternative realizations of the lag sum can be
    compared against the recursive state on shared draws.
    """
    idio = np.asarray(idio, dtype=np.float64)
    shocks = np.asarray(shocks, dtype=np.float64)
    if idio.shape != (spec.n_assets, idio.shape[1]) or idio.ndim != 2:
        raise ValidationError("idio must be an (n_assets, total_steps) array")
    if shocks.shape != (spec.n_factors, idio.shape[1]):
        raise ValidationError("shocks must be an (n_factors, total_steps) array")
    if _integer(burn_in, "burn_in", minimum=0) >= idio.shape[1]:
        raise ValidationError("burn_in must leave at least one emitted step")
    state = np.zeros((spec.n_factors, 1))
    smoothed, _ = _smooth_factors(spec.alpha, shocks, state)
    panel = idio + spec.beta @ smoothed
    return ReturnPanel(panel[:, burn_in:], base_scale=1)


def simulate_panel(spec: ModelSpec, n_steps: int, burn_in: int | None = None) -> ReturnPanel:
    """Simulate a stationary (N, n_steps) return panel from the model.

    Deterministic given (spec, n_steps, burn_in).  `burn_in` defaults to
    stationary_burn_in(alpha, 1e-15).  Generation is chunked along time with a
    fixed chunk size, so memory stays bounded for long panels without changing
    the output.
    """
    n_steps = _integer(n_steps, "n_steps")
    if burn_in is None:
        burn_in = stationary_burn_in(spec.alpha, 1e-15)
    burn_in = _integer(burn_in, "burn_in", minimum=0)

    rng_eps = _keyed_rng(spec.seed, _EPS_STREAM)
    rng_factor = _keyed_rng(spec.seed, _FACTOR_STREAM)
    total = burn_in + n_steps
    out = np.empty((spec.n_assets, n_steps))
    state = np.zeros((spec.n_factors, 1))
    sigma = spec.sigma[:, None]
    factor_sigma = spec.factor_sigma[:, None]
    for start in range(0, total, _CHUNK):
        length = min(_CHUNK, total - start)
        idio = rng_eps.standard_normal((spec.n_assets, length))
        idio *= sigma
        shocks = rng_factor.standard_normal((spec.n_factors, length))
        shocks *= factor_sigma
        smoothed, state = _smooth_factors(spec.alpha, shocks, state)
        keep = max(burn_in - start, 0)
        if keep >= length:
            continue
        chunk = idio[:, keep:]
        chunk += spec.beta @ smoothed[:, keep:]
        lo = start + keep - burn_in
        out[:, lo:lo + (length - keep)] = chunk
    return ReturnPanel(out, base_scale=1)
