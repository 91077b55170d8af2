"""Eigenvalue machinery for lead-lag factor correlation matrices.

With F factors the correlation matrix at one aggregation scale is
C = diag(d) + rho rho^T for an N x F loading matrix rho, where
d_i = 1 - |rho_i|^2 (one factor: an identity-plus-rank-one perturbation).
Its eigenvalues all come from one inertia count.  For lam not equal to any
d_i, Haynsworth inertia additivity gives

    #eig(C) > lam  =  #{d_i > lam}  +  #eig(phi(lam)) > 1,
    phi(lam) = sum_i rho_i rho_i^T / (lam - d_i)   (F x F).

The count is monotone in lam and is the arbiter of every bracket (the LAPACK
dstebz scheme), so roots come with their multiplicity.  The root of rank k
starts from its Weyl bracket [p_k, p_{k-F}] (the d_i descending, p_j = top =
max d + sum |rho_i|^2 for j <= 0, clipped to the floor) if the counts at its
ends agree, else from (floor, top].  All roots are probed together with one
gemm and one batched F x F eigh.  A root alone in a pole-free bracket takes
Newton steps on mu(phi(lam)) = 1, mu the eigenvalue of phi crossing 1; an
iterate outside the bracket becomes its midpoint.  Other roots bisect.  A root
ends when its Newton step is below width/4 or its bracket below width =
2 eps max(1, top), and Newton-steps only while its probes left (twice the
bisection steps from (floor, top]) can still bisect it to width.  Zero-loading
assets enter only the pole count.  Roots tied by tied loadings share their
start and are never isolated, so they bisect on identical paths and come out
bit-identical.

One loadings type, LoadingMatrix, serves every F, and the slicer gives both
spectra: with a floor below every d_i the full spectrum (secular_eigenvalues),
with floor 1 the factor roots (factor_eigenvalues), the zeros of the reduced
F x F determinant det(I_F - phi(lam)) above 1.  For one factor phi is the
secular function f(z) = sum_i rho_i^2 / (z - d_i), strictly decreasing
between poles.  Large eigenvalues are close to those of the Gram matrix
rho^T rho and across scales follow n_assets * strength_f / attenuation(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _alpha, _integer, _positive, _tau_grid
from .fitting import EigenCurve
from .model import ModelSpec
from .moments import ScaleMatrix, _attenuation_array, _scale_loadings, attenuation

__all__ = [
    "LoadingMatrix",
    "Spectrum",
    "correlation_loading",
    "loading_vector",
    "loading_matrix",
    "secular_function",
    "secular_eigenvalues",
    "factor_eigenvalues",
    "gram_eigenvalues",
    "factor_eigencurve",
    "dense_eigenvalues",
]

_UNIT_TOL = 1e-12  # slack on |rho_i|^2 <= 1


@dataclass(frozen=True)
class LoadingMatrix:
    """Per-factor correlation loadings rho[i, f] at one aggregation scale."""

    rho: np.ndarray
    scale: int = 1

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 2 or rho.size < 1:
            raise ValidationError("rho must be an (n_assets, n_factors) matrix")
        if not np.all(np.isfinite(rho)):
            raise ValidationError("loadings must be finite")
        if np.max((rho**2).sum(axis=1)) > 1.0 + _UNIT_TOL:
            raise ValidationError("not a valid correlation structure: row norm exceeds 1")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "scale", _integer(self.scale, "scale"))

    def row_norms_sq(self) -> np.ndarray:
        return (self.rho**2).sum(axis=1)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order; tied roots are bit-identical."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.ndim != 1:
            raise ValidationError("eigenvalues must be a vector")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("eigenvalues must be finite")
        if np.any(np.diff(vals) > 1e-9):
            raise ValidationError("eigenvalues must be in descending order")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())


def correlation_loading(gamma: float, alpha: float, tau) -> float:
    """Loading rho(tau) = sqrt(gamma / (gamma + attenuation(alpha, tau))).

    gamma is the asset's signal-to-noise ratio (factor-driven variance over
    idiosyncratic variance at the base scale); tau may be math.inf.
    """
    gamma = _positive(gamma, "gamma")
    return math.sqrt(gamma / (gamma + attenuation(alpha, tau)))


def loading_matrix(spec: ModelSpec, tau: int) -> LoadingMatrix:
    """Per-factor loadings of the model at scale tau.

    rho[i, f] = K[i, f] / sqrt(|K_i|^2 + sigma_i^2) for the scaled loadings
    K = B / sqrt(attenuation(alpha, tau)), B[i, f] = factor_sigma_f * beta[i, f]:
    the covariance tau * (K K^T + diag(sigma^2)) normalized to unit diagonal.
    Assets with beta_i = 0 get zero loadings.
    """
    scaled = _scale_loadings(spec, tau)
    norms = np.sqrt((scaled**2).sum(axis=1) + spec.sigma**2)
    return LoadingMatrix(scaled / norms[:, None], scale=tau)


def loading_vector(spec: ModelSpec, tau: int) -> LoadingMatrix:
    """One-factor loadings of the model at scale tau: loading_matrix's one column
    (requires n_factors=1)."""
    if spec.n_factors != 1:
        raise ValidationError("loading_vector requires a one-factor spec")
    return loading_matrix(spec, tau)


def secular_function(loadings: LoadingMatrix, z: float) -> float:
    """f(z) = sum over nonzero loadings of rho_i^2 / (z - (1 - rho_i^2)), for one factor."""
    if loadings.rho.shape[1] != 1:
        raise ValidationError("secular_function requires one-factor loadings")
    r2 = np.minimum(loadings.rho[:, 0] ** 2, 1.0)  # clip the <=1e-12 overshoot allowed by the type
    r2 = r2[r2 > 0.0]
    with np.errstate(divide="ignore"):
        return float(np.sum(r2 / (z - (1.0 - r2))))


def _slice_spectrum(rho: np.ndarray, floor: float) -> np.ndarray:
    """Every eigenvalue of diag(1 - |rho_i|^2) + rho rho^T above `floor`, descending.

    The inertia count, the Weyl brackets and the bisection with its Newton
    finish are described in the module docstring.  A probe that lands exactly
    on some d_i counts one ulp above it.
    """
    n_factors = rho.shape[1]
    row_sq = np.minimum((rho**2).sum(axis=1), 1.0)  # clip the type's <=1e-12 overshoot
    d = 1.0 - row_sq
    poles = np.sort(d)
    live = row_sq > 0.0
    d_live, r = d[live], rho[live]
    outer = (r[:, :, None] * r[:, None, :]).reshape(r.shape[0], n_factors**2)

    def probe(lam, cross=0):
        # the count at each lam and, where cross > 0, the Newton iterate on
        # mu_cross(phi) = 1 (descending), slope -v^T phi' v by squaring inv
        below = np.searchsorted(poles, lam, side="right")
        lam = np.where(poles[below - 1] == lam, np.nextafter(lam, np.inf), lam)
        inv = np.subtract.outer(lam, d_live)
        np.reciprocal(inv, out=inv)
        phi = (inv @ outer).reshape(-1, n_factors, n_factors)
        if n_factors > 1:  # a 1 x 1 phi is its own eigenvalue
            mu, vec = np.linalg.eigh(phi)
        else:
            mu, vec = phi[:, 0], np.ones_like(phi)
        counts = poles.size - below + np.count_nonzero(mu > 1.0, axis=1)
        iterate = np.full(lam.size, np.nan)
        newton = np.flatnonzero(cross)
        if newton.size:
            slope = (np.square(inv, out=inv) @ outer).reshape(phi.shape)[newton]
            j = n_factors - cross[newton]
            v = vec[newton, :, j]
            slope = np.einsum("nf,nfg,ng->n", v, slope, v)
            iterate[newton] = lam[newton] + (mu[newton, j] - 1.0) / slope
        return counts, iterate

    top = poles[-1] + row_sq.sum()  # bounds every eigenvalue from above
    wanted = int(probe(np.array([floor]))[0][0]) if top > floor else 0
    if wanted == 0:
        return np.empty(0)
    rank = np.arange(1, wanted + 1)
    width = 2.0 * np.finfo(float).eps * max(1.0, top)
    p = np.concatenate((np.full(n_factors, top), poles[::-1]))  # p_j at j + n_factors - 1
    lo, hi = np.maximum(p[rank - 1 + n_factors], floor), p[rank - 1]
    roots, at = np.empty(wanted), np.arange(wanted)
    # a probe at 0 on a pole at 0 (rho_i^2 = 1) moves to the smallest
    # subnormal, where phi = +inf is the right limit; a zero slope gives no iterate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c_lo, c_hi = probe(lo)[0], probe(hi)[0]
        weyl = (c_lo >= rank) & (c_hi < rank)  # else the root sits on its pole
        lo, c_lo = np.where(weyl, lo, floor), np.where(weyl, c_lo, wanted)
        hi, c_hi = np.where(weyl, hi, top), np.where(weyl, c_hi, 0)
        x = 0.5 * (lo + hi)
        cap = 2 * math.ceil(math.log2((top - floor) / width))
        for step in range(cap):
            # Newton where (lo, hi] holds one eigenvalue and no pole inside, phi
            # crosses 1 there (the root does not sit on a pole at hi), and the
            # probes left can still bisect to width
            above = poles.size - np.searchsorted(poles, lo, side="right")
            isolated = ((c_lo - c_hi == 1) & (rank > above)
                        & (np.searchsorted(poles, hi, side="left") == poles.size - above)
                        & (np.log2((hi - lo) / width) <= cap - step - 1))
            counts, iterate = probe(x, np.where(isolated, rank - above, 0))
            up = counts >= rank
            lo, c_lo = np.where(up, x, lo), np.where(up, counts, c_lo)
            hi, c_hi = np.where(up, hi, x), np.where(up, c_hi, counts)
            converged = (lo <= iterate) & (iterate <= hi) & (np.abs(iterate - x) < 0.25 * width)
            done = converged | (hi - lo < width)
            roots[at[done]] = np.where(converged, iterate, 0.5 * (lo + hi))[done]
            x = np.where((lo < iterate) & (iterate < hi), iterate, 0.5 * (lo + hi))
            at, rank, lo, hi, c_lo, c_hi, x = (a[~done] for a in (at, rank, lo, hi, c_lo, c_hi, x))
            if not at.size:
                break
        roots[at] = 0.5 * (lo + hi)
    return np.sort(roots)[::-1]


def secular_eigenvalues(loadings: LoadingMatrix) -> Spectrum:
    """Exact spectrum of the correlation matrix diag(1 - |rho_i|^2) + rho rho^T, any F.

    All N eigenvalues come from the inertia-counting slicer with a floor below
    every 1 - |rho_i|^2; each starts from its Weyl bracket and ends with
    Newton steps on the eigenvalue of phi crossing 1, to an absolute width of
    2 eps max(1, top).  Tied loadings give bit-identical eigenvalues; zero
    loadings give eigenvalue 1.
    """
    return Spectrum(_slice_spectrum(loadings.rho, floor=-1.0))


def gram_eigenvalues(loadings: LoadingMatrix) -> np.ndarray:
    """Descending eigenvalues of the F x F Gram matrix rho^T rho.

    These approximate the large correlation eigenvalues (the diagonal
    1 - rho_i^2 background is neglected, an O(1) absolute error).
    """
    vals = np.linalg.eigvalsh(loadings.rho.T @ loadings.rho)
    return np.clip(vals[::-1], 0.0, None)


def factor_eigenvalues(loadings: LoadingMatrix) -> np.ndarray:
    """Correlation eigenvalues strictly above 1, descending, with multiplicity.

    These are the zeros of the reduced determinant above 1, found by the
    inertia-counting slicer with floor 1 (bisection, then Newton once a root is
    isolated): tied and near-tied factor roots are returned once per
    multiplicity, to an absolute width of 2 eps max(1, top).
    """
    return _slice_spectrum(loadings.rho, floor=1.0)


def factor_eigencurve(n_assets: int, strength: float, alpha: float, taus) -> EigenCurve:
    """Predicted rank-1 eigenvalue-versus-scale curve for one factor:
    n_assets * strength / attenuation(alpha, tau) on the given grid.

    Strictly increasing in tau for alpha > 0, flat at n_assets * strength for
    alpha = 0.
    """
    strength = _positive(strength, "strength")
    taus = _tau_grid(taus, "taus")
    values = _integer(n_assets, "n_assets") * strength / _attenuation_array(_alpha(alpha), taus)
    return EigenCurve(taus, values)


def dense_eigenvalues(matrix: ScaleMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix (LAPACK symmetric eigensolver).

    Serves as the independent dense oracle for the secular and reduced-
    determinant paths.  Rejects matrices that are not symmetric within
    tolerance.
    """
    a = matrix.values
    return Spectrum(np.linalg.eigvalsh(0.5 * (a + a.T))[::-1])
