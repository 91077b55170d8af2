"""Two-parameter least-squares fit of eigenvalue-versus-scale curves.

Each eigenvalue rank is fitted separately by

    lam(tau) ~= amplitude / attenuation(alpha, tau)

with amplitude = n_assets * gamma_f > 0 and memory decay alpha in
[0, 1 - 1e-6].  The model is linear in the amplitude, so for any alpha its
least-squares value is closed-form and the fit reduces to a 1-D search in
alpha (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
The profiled residual sum of squares is evaluated on a fixed 41-node grid over
the box; the slope d rss / d alpha, taken exactly by a complex step, then
either shows the best node to be a first-order point or brackets the minimum in
a neighbouring cell, where Brent's method solves for the zero of the slope.
Weights are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ValidationError, _integer, _positive, _tau_grid
from .moments import _attenuation_array

__all__ = ["EigenCurve", "FitResult", "fit_eigencurve", "relaxation_time"]

_ALPHA_MAX = 1.0 - 1e-6
# coarse grid whose best node locates the global minimum in alpha to one cell
_ALPHA_GRID = np.linspace(0.0, _ALPHA_MAX, 41)
_COMPLEX_STEP = 1e-30
# the smallest relative tolerance brentq accepts
_RTOL = 4.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class EigenCurve:
    """One eigenvalue rank as a function of the aggregation scale.

    taus are strictly ascending positive integers (base steps); values are the
    matching positive eigenvalues; rank 1 is the largest eigenvalue.
    """

    taus: np.ndarray
    values: np.ndarray
    rank: int = 1

    def __post_init__(self):
        taus = _tau_grid(self.taus, "taus")
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != taus.shape:
            raise ValidationError("taus and values must be equal-length vectors")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValidationError("curve values must be positive and finite")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rank", _integer(self.rank, "rank"))

    def __len__(self) -> int:
        return self.taus.size


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters for one eigenvalue rank.

    amplitude is n_assets * gamma_f; t_alpha is the relaxation time
    base_scale / ln(1/alpha) in the same time unit as the base scale (0.0 at
    the no-memory boundary alpha = 0).
    """

    alpha: float
    amplitude: float
    gamma_f: float
    t_alpha: float
    rss: float
    iterations: int
    converged: bool


def relaxation_time(alpha: float, base_scale_minutes: float = 1.0) -> float:
    """Memory decay time base_scale / ln(1/alpha) of the lead-lag kernel."""
    alpha = float(alpha)
    if alpha == 0.0:
        raise ValidationError("no memory: relaxation time undefined (zero)")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie strictly inside (0, 1)")
    return _positive(base_scale_minutes, "base_scale_minutes") / math.log(1.0 / alpha)


def _check_run(n_assets: int, base_scale_minutes: float) -> tuple[int, float]:
    # the inputs shared by every curve of a run, checked and converted
    return _integer(n_assets, "n_assets"), _positive(base_scale_minutes, "base_scale_minutes")


def _profiled_rss(values: np.ndarray, taus: np.ndarray, alpha):
    # RSS at alpha with the amplitude at its closed-form least-squares value
    # (values . g) / (g . g); no conjugation, so it extends analytically to
    # complex alpha for the complex-step slope
    g = 1.0 / _attenuation_array(alpha, taus)
    amplitude = (values @ g) / (g @ g)
    residual = values - amplitude * g
    return residual @ residual, amplitude


def _slope(alpha: float, values: np.ndarray, taus: np.ndarray) -> float:
    # exact d rss / d alpha: the complex step has no truncation or cancellation
    # error, so any step whose square is far below one ulp works
    rss, _ = _profiled_rss(values, taus, complex(alpha, _COMPLEX_STEP))
    return float(rss.imag) / _COMPLEX_STEP


def fit_eigencurve(curve: EigenCurve, n_assets: int, base_scale_minutes: float = 1.0) -> FitResult:
    """Fit (alpha, amplitude) to one eigenvalue curve.

    Requires at least 3 points (two parameters plus one).  iterations counts
    evaluations of the profiled objective.  converged is True when the
    first-order conditions hold on the box: the slope in alpha is zero inside
    it, or points out of it at a bound.  Otherwise the best grid node is
    returned with converged=False.
    """
    if len(curve) < 3:
        raise ValidationError("curve must contain at least 3 points to fit 2 parameters")
    n_assets, base_scale_minutes = _check_run(n_assets, base_scale_minutes)
    taus = curve.taus.astype(np.float64)
    # optimize on unit-normalized values so tolerances are scale-free and the
    # fit is equivariant under rescaling of the curve
    unit = float(np.max(curve.values))
    values = curve.values / unit

    grid_rss = [_profiled_rss(values, taus, a)[0] for a in _ALPHA_GRID]
    best = int(np.argmin(grid_rss))
    alpha = float(_ALPHA_GRID[best])
    slope = _slope(alpha, values, taus)
    evaluations = _ALPHA_GRID.size + 1
    at_lower, at_upper = best == 0, best == _ALPHA_GRID.size - 1
    if slope == 0.0 or (at_lower and slope > 0.0) or (at_upper and slope < 0.0):
        # stationary at a node, or the slope points out of the box at a bound
        converged = True
    else:
        # the minimum lies in the cell on the downhill side of the best node
        neighbour = float(_ALPHA_GRID[best + 1 if slope < 0.0 else best - 1])
        evaluations += 1
        if slope * _slope(neighbour, values, taus) <= 0.0:
            lo, hi = sorted((alpha, neighbour))
            alpha, root = brentq(_slope, lo, hi, args=(values, taus), xtol=1e-300,
                                 rtol=_RTOL, full_output=True, disp=False)
            evaluations += root.function_calls
            converged = root.converged
        else:
            converged = False
    rss, amplitude = _profiled_rss(values, taus, alpha)
    evaluations += 1
    amplitude = float(amplitude) * unit
    rss = float(rss) * unit * unit

    t_alpha = relaxation_time(alpha, base_scale_minutes) if alpha > 0.0 else 0.0
    return FitResult(
        alpha=alpha,
        amplitude=amplitude,
        gamma_f=amplitude / n_assets,
        t_alpha=t_alpha,
        rss=rss,
        iterations=evaluations,
        converged=converged,
    )
