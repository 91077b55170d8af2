"""Eigenvalue machinery for lead-lag factor correlation matrices.

With F factors the correlation matrix at one aggregation scale is
C = diag(d) + rho rho^T for an N x F loading matrix rho, where
d_i = 1 - |rho_i|^2 (one factor: an identity-plus-rank-one perturbation).
Its eigenvalues all come from one inertia count.  For lam not equal to any
d_i, Haynsworth inertia additivity gives

    #eig(C) > lam  =  #{d_i > lam}  +  #eig(phi(lam)) > 1,
    phi(lam) = sum_i rho_i rho_i^T / (lam - d_i)   (F x F).

The count is monotone in lam, so bisecting on it finds every eigenvalue with
its multiplicity (the LAPACK dstebz scheme): all wanted indices are bisected
together on (floor, max d + sum |rho_i|^2], a step counts every midpoint with
one gemm and one batched F x F eigvalsh, and the bisection stops at a width
of 2 eps max(1, top), about 52 steps for any N, F or root size.  Assets with
zero loadings enter only the pole count #{d_i > lam}.  Tied loadings follow
identical bisection paths, so tied eigenvalues come out bit-identical.
Eigenvectors, when asked for, come from LAPACK (eigh) on the explicit
matrix, which keeps them orthonormal however close the d_i are.

For one factor phi is the secular function f(z) = sum_i rho_i^2 / (z - d_i),
strictly decreasing between poles; its eigenvalues above 1 are the zeros of
the reduced F x F determinant det(I_F - phi(lam)).  For large eigenvalues
they are close to the eigenvalues of the Gram matrix rho^T rho, and across
scales they all follow n_assets * strength_f / attenuation(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _alpha, _integer, _positive, _tau_grid
from .fitting import EigenCurve
from .model import ModelSpec
from .moments import ScaleMatrix, _attenuation_array, attenuation

__all__ = [
    "LoadingVector",
    "LoadingMatrix",
    "Spectrum",
    "correlation_loading",
    "loading_vector",
    "loading_matrix",
    "secular_function",
    "secular_eigenvalues",
    "factor_eigenvalues",
    "gram_eigenvalues",
    "factor_strength_matrix",
    "factor_strengths",
    "factor_eigencurve",
    "dense_eigenvalues",
]

_UNIT_TOL = 1e-12  # slack on rho_i^2 <= 1


@dataclass(frozen=True)
class LoadingVector:
    """Correlation loadings rho_i at one aggregation scale (one factor)."""

    rho: np.ndarray
    scale: int = 1

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 1 or rho.size < 1:
            raise ValidationError("rho must be a nonempty vector")
        if not np.all(np.isfinite(rho)):
            raise ValidationError("loadings must be finite")
        if np.max(rho**2) > 1.0 + _UNIT_TOL:
            raise ValidationError("not a valid correlation structure: rho_i^2 exceeds 1")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "scale", _integer(self.scale, "scale"))

    @property
    def n_assets(self) -> int:
        return self.rho.size


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

    @property
    def n_assets(self) -> int:
        return self.rho.shape[0]

    @property
    def n_factors(self) -> int:
        return self.rho.shape[1]

    def row_norms_sq(self) -> np.ndarray:
        return (self.rho**2).sum(axis=1)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with per-entry multiplicity counts.

    multiplicities[i] is the number of entries sharing exactly the value
    eigenvalues[i] (so a simple eigenvalue carries 1).  When eigenvectors are
    attached, column j pairs with eigenvalues[j].
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        mult = np.asarray(self.multiplicities, dtype=np.int64)
        if vals.ndim != 1 or mult.shape != vals.shape:
            raise ValidationError("eigenvalues and multiplicities must be equal-length vectors")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("eigenvalues must be finite")
        if np.any(np.diff(vals) > 1e-9):
            raise ValidationError("eigenvalues must be in descending order")
        if np.any(mult < 1):
            raise ValidationError("multiplicities must be positive")
        if self.eigenvectors is not None:
            vecs = np.asarray(self.eigenvectors, dtype=np.float64)
            if vecs.shape != (vals.size, vals.size):
                raise ValidationError("eigenvectors must form a square matrix")
            object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())


def _exact_multiplicities(values: np.ndarray) -> np.ndarray:
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return counts[inverse]


def _spectrum_from_values(values: np.ndarray, vectors: np.ndarray | None = None) -> Spectrum:
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    if vectors is not None:
        vectors = vectors[:, order]
    return Spectrum(values, _exact_multiplicities(values), vectors)


def correlation_loading(gamma: float, alpha: float, tau) -> float:
    """Loading rho(tau) = sqrt(gamma / (gamma + attenuation(alpha, tau))).

    gamma is the asset's signal-to-noise ratio (factor-driven variance over
    idiosyncratic variance at the base scale); tau may be math.inf.
    """
    gamma = _positive(gamma, "gamma")
    return math.sqrt(gamma / (gamma + attenuation(alpha, tau)))


def loading_matrix(spec: ModelSpec, tau: int) -> LoadingMatrix:
    """Per-factor loadings of the model at scale tau.

    beta_i^2 = sum_f factor_sigma_f^2 beta[i,f]^2 sets the per-asset
    signal-to-noise gamma_i = beta_i^2 / sigma_i^2, and
    rho[i, f] = factor_sigma_f * beta[i, f] / beta_i * rho_i(tau).
    Assets with beta_i = 0 get zero loadings.
    """
    tau = _integer(tau, "tau")
    eta = attenuation(spec.alpha, tau)
    scaled = spec.beta * spec.factor_sigma[None, :]
    beta_sq = (scaled**2).sum(axis=1)
    gamma = beta_sq / spec.sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_i = np.sqrt(gamma / (gamma + eta))
        direction = scaled / np.sqrt(beta_sq)[:, None]
    rho = np.where(beta_sq[:, None] > 0.0, direction * rho_i[:, None], 0.0)
    return LoadingMatrix(rho, scale=tau)


def loading_vector(spec: ModelSpec, tau: int) -> LoadingVector:
    """One-factor loadings of the model at scale tau (requires n_factors=1)."""
    if spec.n_factors != 1:
        raise ValidationError("loading_vector requires a one-factor spec")
    return LoadingVector(loading_matrix(spec, tau).rho[:, 0], scale=tau)


def _nonzero_poles(loadings: LoadingVector):
    r2 = np.minimum(loadings.rho**2, 1.0)  # clip the <=1e-12 overshoot allowed by the type
    nonzero = np.flatnonzero(r2 > 0.0)
    return r2, nonzero


def secular_function(loadings: LoadingVector, z: float) -> float:
    """f(z) = sum over nonzero loadings of rho_i^2 / (z - (1 - rho_i^2))."""
    r2, nonzero = _nonzero_poles(loadings)
    poles = 1.0 - r2[nonzero]
    with np.errstate(divide="ignore"):
        return float(np.sum(r2[nonzero] / (z - poles)))


def _slice_spectrum(rho: np.ndarray, floor: float) -> np.ndarray:
    """Every eigenvalue of diag(1 - |rho_i|^2) + rho rho^T above `floor`, descending.

    The inertia count and the bisection are described in the module
    docstring.  A lam that lands exactly on some d_i moves up one ulp.
    """
    n_factors = rho.shape[1]
    row_sq = np.minimum((rho**2).sum(axis=1), 1.0)  # clip the types' <=1e-12 overshoot
    d = 1.0 - row_sq
    poles = np.sort(d)
    live = row_sq > 0.0
    d_live, r = d[live], rho[live]
    outer = (r[:, :, None] * r[:, None, :]).reshape(r.shape[0], n_factors**2)

    def count(lam):
        below = np.searchsorted(poles, lam, side="right")
        lam = np.where(poles[below - 1] == lam, np.nextafter(lam, np.inf), lam)
        shifted = np.subtract.outer(lam, d_live)
        phi = np.reciprocal(shifted, out=shifted) @ outer
        if n_factors > 1:  # a 1 x 1 phi is its own eigenvalue
            phi = np.linalg.eigvalsh(phi.reshape(-1, n_factors, n_factors))
        return lam, poles.size - below + np.count_nonzero(phi > 1.0, axis=1)

    top = poles[-1] + row_sq.sum()  # bounds every eigenvalue from above
    wanted = int(count(np.array([floor]))[1][0]) if top > floor else 0
    if wanted == 0:
        return np.empty(0)
    rank = np.arange(1, wanted + 1)
    lo, hi = np.full(wanted, float(floor)), np.full(wanted, top)
    width = 2.0 * np.finfo(float).eps * max(1.0, top)
    # a midpoint at 0 on a pole at 0 (rho_i^2 = 1) moves to the smallest
    # subnormal, where phi = +inf is the right limit
    with np.errstate(over="ignore"):
        for _ in range(math.ceil(math.log2((top - floor) / width))):
            mid, counts = count(0.5 * (lo + hi))
            up = counts >= rank
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    return np.sort(0.5 * (lo + hi))[::-1]


def secular_eigenvalues(loadings: LoadingVector, with_vectors: bool = False) -> Spectrum:
    """Exact spectrum of the one-factor correlation matrix diag(1 - rho_i^2) + rho rho^T.

    All N eigenvalues come from the inertia-counting slicer with a floor below
    every 1 - rho_i^2, to an absolute width of 2 eps max(1, top).  Tied
    loadings give bit-identical eigenvalues, so `multiplicities` is exact;
    zero loadings give eigenvalue 1.  Eigenvectors are computed only on
    demand, by LAPACK (eigh) on the explicit matrix, and paired with the
    values by position; degenerate subspaces get an orthonormal basis.
    """
    values = _slice_spectrum(loadings.rho[:, None], floor=-1.0)
    vectors = None
    if with_vectors:
        matrix = np.outer(loadings.rho, loadings.rho)
        np.fill_diagonal(matrix, 1.0)
        vectors = np.linalg.eigh(matrix)[1][:, ::-1]
    return _spectrum_from_values(values, vectors)


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
    inertia-counting slicer with floor 1: tied and near-tied factor roots are
    returned once per multiplicity, to an absolute width of 2 eps max(1, top).
    """
    return _slice_spectrum(loadings.rho, floor=1.0)


def factor_strength_matrix(spec: ModelSpec) -> np.ndarray:
    """Scale-independent factor strengths, an F x F symmetric PSD matrix:

    values[f, g] = factor_sigma_f * factor_sigma_g / N
                   * sum_i beta[i, f] * beta[i, g] / sigma_i^2
    """
    weighted = spec.beta / spec.sigma[:, None]
    core = (weighted.T @ weighted) / spec.n_assets
    values = core * np.outer(spec.factor_sigma, spec.factor_sigma)
    return 0.5 * (values + values.T)


def factor_strengths(spec: ModelSpec) -> np.ndarray:
    """Descending factor strengths gamma_f of a model spec: the eigenvalues of
    factor_strength_matrix, clipped at zero; they enter
    n_assets * strength / attenuation(tau)."""
    return np.clip(np.linalg.eigvalsh(factor_strength_matrix(spec))[::-1], 0.0, None)


def factor_eigencurve(n_assets: int, strength: float, alpha: float, taus,
                      rank: int = 1) -> EigenCurve:
    """Predicted eigenvalue-versus-scale curve for one factor:
    n_assets * strength / attenuation(alpha, tau) on the given grid.

    Strictly increasing in tau for alpha > 0, flat at n_assets * strength for
    alpha = 0.
    """
    strength = _positive(strength, "strength")
    taus = _tau_grid(taus, "taus")
    values = _integer(n_assets, "n_assets") * strength / _attenuation_array(_alpha(alpha), taus)
    return EigenCurve(taus, values, rank=rank)


def dense_eigenvalues(matrix: ScaleMatrix, with_vectors: bool = False) -> Spectrum:
    """Full spectrum of a symmetric matrix (LAPACK symmetric eigensolver).

    Serves as the independent dense oracle for the secular and reduced-
    determinant paths.  Rejects matrices that are not symmetric within
    tolerance; per-pair residuals satisfy ||A v - lam v|| <= 1e-9 ||A||.
    """
    a = matrix.values
    sym = 0.5 * (a + a.T)
    if with_vectors:
        vals, vecs = np.linalg.eigh(sym)
        return _spectrum_from_values(vals, vecs)
    vals = np.linalg.eigvalsh(sym)
    return _spectrum_from_values(vals)
