"""Closed-form second moments of the lead-lag model and sample estimators.

Two scalar functions carry the whole scale dependence:

* ``factor_variance_sum(alpha, tau)`` -- variance accumulated by the
  tau-aggregated, exponentially smoothed factor, normalized so that alpha = 0
  gives exactly tau:

      (tau * (1 - alpha^2) - 2 * alpha * (1 - alpha^tau)) / (1 - alpha^2)

* ``attenuation(alpha, tau)`` -- tau * (1 - alpha)^2 / factor_variance_sum.
  It decreases monotonically from 1 - alpha^2 at tau = 1 to (1 - alpha)^2 as
  tau -> inf, and every eigenvalue formula in this package depends on the
  scale only through it.

With those, the covariance of tau-aggregated returns is

    C[i, j] = tau * sigma_i^2 * delta_ij
              + factor_variance_sum / (1 - alpha)^2
                * sum_f factor_sigma_f^2 * beta[i, f] * beta[j, f],

and the correlation matrix is that covariance normalized to unit diagonal;
its off-diagonal entries equal sum_f rho[i, f] * rho[j, f] for the loadings
of `spectral.loading_matrix`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError, _alpha, _integer
from .model import ModelSpec, ReturnPanel

__all__ = [
    "ScaleMatrix",
    "factor_variance_sum",
    "attenuation",
    "theoretical_covariance",
    "theoretical_correlation",
    "aggregate_returns",
    "sample_covariance",
    "sample_correlation",
]

_SYM_TOL = 1e-12

# bytes of base steps per chunk of the streamed engine.  Smaller chunks mean
# thinner gemms: on a 533 x 65,536 panel (2-core VM) the curves took 3.1 s at
# 4 MiB, 2.1 s at 8 MiB and 1.3-1.6 s at 16 MiB, against 2.0-2.7 s dense.
_CHUNK_BYTES = 16 << 20


@dataclass(frozen=True)
class ScaleMatrix:
    """Covariance or correlation matrix tagged with its aggregation scale."""

    values: np.ndarray
    scale: int
    kind: str  # "covariance" | "correlation"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("matrix must be square")
        scale = _integer(self.scale, "scale")
        if self.kind not in ("covariance", "correlation"):
            raise ValidationError("kind must be 'covariance' or 'correlation'")
        norm = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
        if float(np.max(np.abs(arr - arr.T))) > _SYM_TOL * norm:
            raise ValidationError("matrix is not symmetric within tolerance")
        if self.kind == "correlation":
            if float(np.max(np.abs(np.diag(arr) - 1.0))) > _SYM_TOL:
                raise ValidationError("correlation matrix must have unit diagonal")
            if float(np.max(np.abs(arr))) > 1.0 + _SYM_TOL:
                raise ValidationError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "scale", scale)

    @property
    def n_assets(self) -> int:
        return self.values.shape[0]


def factor_variance_sum(alpha: float, tau: int) -> float:
    """Normalized factor-variance accumulation over a block of tau steps.

    Equals tau at alpha = 0 and is strictly positive for tau >= 1.
    """
    return _accumulation(_alpha(alpha), _integer(tau, "tau"))


def attenuation(alpha: float, tau) -> float:
    """Scale attenuation tau * (1-alpha)^2 / factor_variance_sum(alpha, tau).

    Accepts tau = math.inf and then returns the exact limit (1 - alpha)^2,
    avoiding any alpha**tau underflow ambiguity.  attenuation(alpha, 1) is
    exactly 1 - alpha^2.
    """
    alpha = _alpha(alpha)
    if tau == math.inf:
        return (1.0 - alpha) ** 2
    tau = _integer(tau, "tau")
    if tau == 1:
        return 1.0 - alpha * alpha
    return tau * (1.0 - alpha) ** 2 / factor_variance_sum(alpha, tau)


def _accumulation(alpha, tau):
    # factor_variance_sum without checks; exactly tau at alpha = 0.  Keep it
    # analytic in alpha: the fitter's complex-step slope passes complex alpha.
    one_minus_a2 = 1.0 - alpha * alpha
    return (tau * one_minus_a2 - 2.0 * alpha * (1.0 - alpha**tau)) / one_minus_a2


def _attenuation_array(alpha: float, taus) -> np.ndarray:
    # Unguarded vector version used by fitting and plotting.  Tolerates float
    # tau, and complex alpha for the fitter's complex-step slope.  A column of
    # alphas against the taus broadcasts to one row per alpha: the fitter
    # scores its whole alpha grid in one call.
    taus = np.asarray(taus, dtype=np.float64)
    return taus * (1.0 - alpha) ** 2 / _accumulation(alpha, taus)


def _factor_gram(spec: ModelSpec) -> np.ndarray:
    # sum_f factor_sigma_f^2 * beta[:, f] outer beta[:, f]
    scaled = spec.beta * spec.factor_sigma[None, :]
    return scaled @ scaled.T


def theoretical_covariance(spec: ModelSpec, tau: int) -> ScaleMatrix:
    """Model covariance of tau-aggregated returns.

    The factor block carries the accumulated smoothing variance
    factor_variance_sum(alpha, tau) / (1 - alpha)^2; the diagonal adds the
    diffusive idiosyncratic part tau * sigma_i^2.
    """
    tau = _integer(tau, "tau")
    weight = factor_variance_sum(spec.alpha, tau) / (1.0 - spec.alpha) ** 2
    cov = weight * _factor_gram(spec)
    cov[np.diag_indices_from(cov)] += tau * spec.sigma**2
    return ScaleMatrix(cov, scale=tau, kind="covariance")


def _normalize(cov: np.ndarray) -> np.ndarray:
    # cov[i, j] / (sd_i sd_j), clipped to [-1, 1], with an exact unit diagonal
    inv_sd = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * inv_sd[:, None] * inv_sd[None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def theoretical_correlation(spec: ModelSpec, tau: int) -> ScaleMatrix:
    """Model correlation of tau-aggregated returns: the normalized
    theoretical covariance, with exact unit diagonal."""
    cov = theoretical_covariance(spec, tau)
    return ScaleMatrix(_normalize(cov.values), scale=cov.scale, kind="correlation")


def aggregate_returns(panel: ReturnPanel, tau: int) -> ReturnPanel:
    """Non-overlapping block sums of length tau.

    Output length is floor(T / tau); trailing remainder steps are dropped so
    blocks stay homogeneous.  The base scale is multiplied by tau.
    """
    tau = _integer(tau, "tau")
    n, t = panel.returns.shape
    if tau > t:
        raise DataError(f"scale exceeds series length (tau={tau}, steps={t})")
    if tau == 1:
        return panel
    blocks = t // tau
    summed = panel.returns[:, : blocks * tau].reshape(n, blocks, tau).sum(axis=2)
    return ReturnPanel(summed, base_scale=panel.base_scale * tau,
                       asset_labels=panel.asset_labels)


def _centered_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the row means of x (as a column) and its centered cross-product
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    return mean, centered @ centered.T


def _covariance(cross: np.ndarray, count: int) -> np.ndarray:
    # the centered cross-product of `count` observations over count - 1
    cov = cross / (count - 1)
    return 0.5 * (cov + cov.T)  # kill rounding asymmetry from BLAS


def _correlation(cov: np.ndarray, labels) -> np.ndarray:
    # the normalized covariance; DataError names the first asset with zero variance
    dead = np.flatnonzero(np.diag(cov) <= 0.0)
    if dead.size:
        raise DataError(f"asset {labels[dead[0]]!r} has zero sample variance")
    return _normalize(cov)


def sample_covariance(panel: ReturnPanel) -> ScaleMatrix:
    """Mean-subtracted, 1/(T-1)-normalized sample covariance."""
    t = panel.n_steps
    if t < 2:
        raise DataError("at least two observations are required")
    cov = _covariance(_centered_moments(panel.returns)[1], t)
    return ScaleMatrix(cov, scale=panel.base_scale, kind="covariance")


def sample_correlation(panel: ReturnPanel) -> ScaleMatrix:
    """Sample correlation; diagonal exactly 1.

    Raises DataError naming the first asset whose sample variance is zero.
    """
    cov = sample_covariance(panel).values
    return ScaleMatrix(_correlation(cov, panel.asset_labels), scale=panel.base_scale,
                       kind="correlation")


def _chunk_length(n_assets: int, taus) -> int:
    # steps per chunk: what fits _CHUNK_BYTES, rounded down to a multiple of
    # lcm(taus) where one fits, so that no block straddles two chunks and no
    # tail is carried (long-panel's curves on 2 cores: 1.7-1.8 s, 1.9-2.1 s
    # unrounded)
    steps = max(1, _CHUNK_BYTES // (8 * n_assets))
    lcm = math.lcm(*taus)
    return steps // lcm * lcm or steps


def _block_sums(x: np.ndarray, ratio: int) -> np.ndarray:
    # sums of `ratio` consecutive columns of x, a trailing remainder dropped,
    # with aggregate_returns' bytes (up to the sign of a zero).  numpy adds
    # fewer than 8 terms left to right, which strided adds do in the same
    # order and faster (long-panel's curves on 2 cores: 1.8-2.1 s, 3.8-4.0 s
    # with the reduction alone); from 8 terms on numpy sums pairwise.
    if ratio == 1:
        return x
    end = x.shape[1] // ratio * ratio
    if ratio >= 8:
        return x[:, :end].reshape(x.shape[0], -1, ratio).sum(axis=2)
    sums = x[:, 0:end:ratio] + x[:, 1:end:ratio]
    for k in range(2, ratio):
        sums += x[:, k:end:ratio]
    return sums


def _panel_chunks(returns: np.ndarray, taus) -> Iterator[np.ndarray]:
    # the engine's chunks of a panel in memory: views of _chunk_length columns
    length = _chunk_length(returns.shape[0], taus)
    return (returns[:, start:start + length] for start in range(0, returns.shape[1], length))


def _scale_covariances(chunks: Iterable[np.ndarray], taus) -> list[np.ndarray]:
    """Sample covariance of the tau-aggregated rows of a panel for each tau
    of the ascending grid `taus`, in one pass over `chunks`, the panel's
    consecutive (N, <= _chunk_length) column blocks.

    Equals sample_covariance(aggregate_returns(panel, tau)) to rounding, and
    every tau must leave at least two blocks.  Within a chunk a scale's block
    sums are summed from those of the largest earlier grid scale dividing it
    (the dyadic cascade on the dyadic ladder), and are dropped once the last
    scale summed from them is done.  Blocks start at multiples of tau, so
    floor(T / tau) of them survive: chunks of _chunk_length steps are
    multiples of lcm(taus) where that fits the budget, and otherwise each tau
    carries the few source sums that end a chunk into the next one.  Across
    chunks the count, means and centered cross-products merge by the pairwise
    update of Chan, Golub and LeVeque (1979).  A panel that fits in one chunk
    gets the dense path's bytes at tau = 1 and at every tau summed straight
    from the base steps.  Nothing here keeps a view of a chunk, so its memory
    may be reused for the next one.
    """
    sources = {tau: max(s for s in (1, *taus[:i]) if tau % s == 0)
               for i, tau in enumerate(taus)}
    last_use = {source: tau for tau, source in sources.items()}
    tails = {}  # tau -> its source's sums left over at the end of the last chunk
    states = {tau: None for tau in taus}  # (count, mean, cross-product)
    for chunk in chunks:
        sums = {1: chunk}
        for tau in taus:
            source = sources[tau]
            x = sums.pop(source) if last_use[source] == tau else sums[source]
            if tau in tails:
                x = np.concatenate((tails.pop(tau), x), axis=1)
            ratio = tau // source
            if x.shape[1] % ratio:
                tails[tau] = x[:, x.shape[1] // ratio * ratio:].copy()
            x = _block_sums(x, ratio)
            if tau in last_use:
                sums[tau] = x
            blocks = x.shape[1]
            if not blocks:
                continue
            mean, cross = _centered_moments(x)
            if states[tau] is None:
                states[tau] = (blocks, mean, cross)
                continue
            count, total_mean, total_cross = states[tau]
            merged = count + blocks
            delta = mean - total_mean
            total_cross += cross
            total_cross += (delta @ delta.T) * (count * blocks / merged)
            states[tau] = (merged, total_mean + delta * (blocks / merged), total_cross)
    return [_covariance(states[tau][2], states[tau][0]) for tau in taus]
