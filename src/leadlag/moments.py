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
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
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
        scale = int(self.scale)
        if scale < 1:
            raise ValidationError("scale must be a positive integer")
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


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("alpha must satisfy 0 <= alpha < 1")
    return alpha


def factor_variance_sum(alpha: float, tau: int) -> float:
    """Normalized factor-variance accumulation over a block of tau steps.

    Equals tau at alpha = 0 and is strictly positive for tau >= 1.
    """
    alpha = _check_alpha(alpha)
    tau = int(tau)
    if tau < 1:
        raise ValidationError("tau must be a positive integer")
    return _accumulation(alpha, tau)


def attenuation(alpha: float, tau) -> float:
    """Scale attenuation tau * (1-alpha)^2 / factor_variance_sum(alpha, tau).

    Accepts tau = math.inf and then returns the exact limit (1 - alpha)^2,
    avoiding any alpha**tau underflow ambiguity.  attenuation(alpha, 1) is
    exactly 1 - alpha^2.
    """
    alpha = _check_alpha(alpha)
    if tau == math.inf:
        return (1.0 - alpha) ** 2
    tau = int(tau)
    if tau < 1:
        raise ValidationError("tau must be a positive integer or math.inf")
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
    # tau, and complex alpha for the fitter's complex-step slope.
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
    tau = int(tau)
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
    tau = int(tau)
    if tau < 1:
        raise ValidationError("tau must be a positive integer")
    n, t = panel.returns.shape
    if tau > t:
        raise DataError(f"scale exceeds series length (tau={tau}, steps={t})")
    if tau == 1:
        return panel
    blocks = t // tau
    summed = panel.returns[:, : blocks * tau].reshape(n, blocks, tau).sum(axis=2)
    return ReturnPanel(summed, base_scale=panel.base_scale * tau,
                       asset_labels=panel.asset_labels)


def sample_covariance(panel: ReturnPanel) -> ScaleMatrix:
    """Mean-subtracted, 1/(T-1)-normalized sample covariance."""
    t = panel.n_steps
    if t < 2:
        raise DataError("at least two observations are required")
    centered = panel.returns - panel.returns.mean(axis=1, keepdims=True)
    cov = centered @ centered.T
    cov /= t - 1
    cov = 0.5 * (cov + cov.T)  # kill rounding asymmetry from BLAS
    return ScaleMatrix(cov, scale=panel.base_scale, kind="covariance")


def sample_correlation(panel: ReturnPanel) -> ScaleMatrix:
    """Sample correlation; diagonal exactly 1.

    Raises DataError naming the first asset whose sample variance is zero.
    """
    cov = sample_covariance(panel).values
    dead = np.flatnonzero(np.diag(cov) <= 0.0)
    if dead.size:
        label = panel.asset_labels[dead[0]]
        raise DataError(f"asset {label!r} has zero sample variance")
    return ScaleMatrix(_normalize(cov), scale=panel.base_scale, kind="correlation")
