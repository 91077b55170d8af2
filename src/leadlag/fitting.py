"""Two-parameter least-squares fit of eigenvalue-versus-scale curves.

Each eigenvalue rank is fitted separately by

    lam(tau) ~= amplitude / attenuation(alpha, tau)

with amplitude = n_assets * gamma_f > 0 and memory decay alpha in
[0, 1 - 1e-6].  The model is linear in the amplitude, so for any alpha its
least-squares value is closed-form and the fit reduces to a 1-D search in
alpha (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
The profiled residual sum of squares is evaluated on a fixed 41-node grid over
the box, in one array evaluation of all nodes that keeps each node's scalar
bits; the slope d rss / d alpha, taken exactly by a complex step, then
either shows the best node to be a first-order point or brackets the minimum in
a neighbouring cell, where Brent's method (Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4) solves for the zero of the slope.  `_brent` is
a step-for-step port of scipy's `brentq`, so the fits keep its iterates.
Weights are uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integer, _positive, _tau_grid
from .moments import _attenuation_array

__all__ = ["EigenCurve", "FitResult", "fit_eigencurve", "relaxation_time"]

_ALPHA_MAX = 1.0 - 1e-6
# coarse grid whose best node locates the global minimum in alpha to one cell
_ALPHA_GRID = np.linspace(0.0, _ALPHA_MAX, 41)
_COMPLEX_STEP = 1e-30
# Brent stops once the bracket is narrower than _XTOL + _RTOL * |alpha|: four
# ulps of alpha, the tightest width scipy's brentq accepts.  _XTOL only keeps
# that width positive at alpha = 0.  Both are Python floats, so the root is too.
_RTOL = 4.0 * math.ulp(1.0)
_XTOL = 1e-300


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


def _dot(x: np.ndarray, y: np.ndarray):
    # x . y along the last axis, with no conjugation; a stack of rows gives one
    # product per row.  Each product is a (1, T) @ (T, 1) matmul, which numpy
    # hands to BLAS's dot as it does a 1-D x @ y, so a row's product has the
    # bits of the same row's 1-D product.  Returns a scalar for 1-D x and y.
    return np.matmul(x[..., None, :], y[..., None])[..., 0, 0][()]


def _profiled_rss(values: np.ndarray, taus: np.ndarray, alpha):
    # RSS at alpha with the amplitude at its closed-form least-squares value
    # (values . g) / (g . g); no conjugation, so it extends analytically to
    # complex alpha for the complex-step slope.  A column of alphas gives the
    # RSS and amplitude of each, with the bits of the scalar calls.
    g = 1.0 / _attenuation_array(alpha, taus)
    amplitude = _dot(g, values) / _dot(g, g)
    residual = values - amplitude[..., None] * g
    return _dot(residual, residual), amplitude


def _slope(alpha: float, values: np.ndarray, taus: np.ndarray) -> float:
    # exact d rss / d alpha: the complex step has no truncation or cancellation
    # error, so any step whose square is far below one ulp works
    rss, _ = _profiled_rss(values, taus, complex(alpha, _COMPLEX_STEP))
    return float(rss.imag) / _COMPLEX_STEP


def _brent(f, xa: float, xb: float, args=(), maxiter: int = 100):
    # Zero of f in [xa, xb], where f(xa) and f(xb) differ in sign or one is
    # zero.  Ported statement for statement from scipy's brentq.c, so every
    # iterate, and the root, is the one scipy.optimize.brentq returns with
    # xtol=_XTOL and rtol=_RTOL.  xblk is the far end of the bracket, xpre the
    # previous iterate; each step inverse-interpolates through two points or
    # three, or bisects when that step would not shrink the bracket fast enough.
    # Returns (root, function calls, converged).
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre, *args), f(xcur, *args)
    calls = 2
    if fpre == 0.0:
        return xpre, calls, True
    if fcur == 0.0:
        return xcur, calls, True
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect: the interpolated step is too long
                spre = scur = sbis
        else:
            # bisect: the last step was too short or did not shrink |f|
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur, *args)
        calls += 1
    return xcur, calls, False


def fit_eigencurve(curve: EigenCurve, n_assets: int, base_scale_minutes: float = 1.0) -> FitResult:
    """Fit (alpha, amplitude) to one eigenvalue curve.

    Requires at least 3 points (two parameters plus one).  iterations counts
    evaluations of the profiled objective; the 41-node alpha grid is scored in
    one array evaluation but still counts as its 41 nodes.  converged is True
    when the first-order conditions hold on the box: the slope in alpha is
    zero inside it, or points out of it at a bound.  Otherwise the best grid
    node is returned with converged=False.
    """
    if len(curve) < 3:
        raise ValidationError("curve must contain at least 3 points to fit 2 parameters")
    n_assets, base_scale_minutes = _check_run(n_assets, base_scale_minutes)
    taus = curve.taus.astype(np.float64)
    # optimize on unit-normalized values so tolerances are scale-free and the
    # fit is equivariant under rescaling of the curve
    unit = float(np.max(curve.values))
    values = curve.values / unit

    grid_rss, _ = _profiled_rss(values, taus, _ALPHA_GRID[:, None])
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
            alpha, calls, converged = _brent(_slope, lo, hi, (values, taus))
            evaluations += calls
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
