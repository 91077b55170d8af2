"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the closed forms implemented in the
package: truncated lag sums are evaluated term by term (with prefix sums for
speed), covariances are assembled from the raw double sum over block
offsets, and loading spectra come from the explicitly built matrix, the
equal-loading closed form, an LU determinant or mpmath at 40-50 digits.
These stay the reference side of every dual-route check.  The one-piece panel assembly reuses the package's
factor recursion, which its own test pins to scipy's lfilter bit for bit, and
sums its factor terms by an explicit multiply-add over the factors, with no
BLAS call, no einsum and none of the simulator's blocks.  The reference panel
and beta-file readers are built from the README's *File formats* section
alone, with regular expressions where the package uses numpy's loadtxt.
"""

import csv
import math
import re

import mpmath
import numpy as np

from leadlag import ValidationError
from leadlag.errors import _integer
from leadlag.model import _smooth_factors


def smoothing_accumulation(alpha: float, tau: int, depth: int = 10_000) -> float:
    """Truncated quadruple sum over block offsets and lag pairs.

    Sums alpha**(k1 + k2) over l1, l2 in [0, tau) and k1, k2 in [0, depth]
    subject to l1 + k1 == l2 + k2 (the matching condition for uncorrelated
    factor shocks).  Grouping by d = l1 - l2 leaves tau - |d| identical pair
    contributions; negative offsets equal positive ones term by term (shift
    k1 by |d|), so they are folded in with a factor of two.  Partial sums of
    the power table are taken via suffix accumulation (small terms first) to
    avoid cancellation.
    """
    if alpha == 0.0:
        return float(tau)
    powers = alpha ** (2.0 * np.arange(depth + 1))
    suffix = np.concatenate((np.cumsum(powers[::-1])[::-1], [0.0]))
    total_sum = float(suffix[0])
    total = tau * total_sum
    for d in range(1, tau):
        partial = total_sum - float(suffix[depth - d + 1])  # k in [0, depth - d]
        total += 2 * (tau - d) * alpha**d * partial
    return float(total)


def covariance_oracle(spec, tau: int, depth: int = 10_000) -> np.ndarray:
    """Aggregated-return covariance assembled from the brute-force lag sum."""
    weight = smoothing_accumulation(spec.alpha, tau, depth)
    scaled = spec.beta * spec.factor_sigma[None, :]
    cov = weight * (scaled @ scaled.T)
    cov[np.diag_indices_from(cov)] += tau * spec.sigma**2
    return cov


def panel_from_innovations(spec, idio: np.ndarray, shocks: np.ndarray,
                           burn_in: int = 0) -> np.ndarray:
    """The (N, T) panel of explicit innovation draws, in one piece.

    `idio` is the (N, T) idiosyncratic noise of the emitted steps (already
    scaled by sigma), `shocks` the (F, burn_in + T) factor innovations
    (already scaled by factor_sigma), whose first `burn_in` columns only feed
    the recursion.  Each factor term is beta[i, 0] * S_0(t) + beta[i, 1] *
    S_1(t) + ..., added in the order of the factors: the simulator's sum,
    whatever blocks it emits.
    """
    idio = np.asarray(idio, dtype=np.float64)
    # a C-ordered copy: the recursion overwrites it, and the caller's array stays
    shocks = np.array(shocks, dtype=np.float64, order="C")
    if idio.ndim != 2 or idio.shape[0] != spec.n_assets:
        raise ValidationError("idio must be an (n_assets, n_steps) array")
    burn_in = _integer(burn_in, "burn_in", minimum=0)
    total = burn_in + idio.shape[1]
    if shocks.shape != (spec.n_factors, total):
        raise ValidationError("shocks must be an (n_factors, burn_in + n_steps) array")
    smoothed, _ = _smooth_factors(spec.alpha, shocks, np.zeros((spec.n_factors, 1)))
    terms = spec.beta[:, :1] * smoothed[:1]
    for f in range(1, spec.n_factors):
        terms += spec.beta[:, f:f + 1] * smoothed[f:f + 1]
    return idio + terms[:, burn_in:]


def truncated_convolution_panel(spec, idio: np.ndarray, shocks: np.ndarray,
                                depth: int) -> np.ndarray:
    """Realize the lag sum as an explicit truncated convolution of depth k."""
    weights = spec.alpha ** np.arange(depth + 1)
    total = shocks.shape[1]
    smoothed = np.vstack([np.convolve(shocks[f], weights)[:total]
                          for f in range(spec.n_factors)])
    return idio + spec.beta @ smoothed


def smallest_power_below(alpha: float, tolerance: float) -> int:
    """Plain integer search for the smallest k with alpha**k < tolerance."""
    k = 0
    while alpha**k >= tolerance:
        k += 1
    return k


def dense_loading_spectrum(rho) -> np.ndarray:
    """Descending eigenvalues of diag(1 - |rho_i|^2) + rho rho^T, built explicitly.

    rho is a vector (one factor) or an (n_assets, n_factors) matrix.
    """
    rho = np.asarray(rho, dtype=np.float64)
    rho = rho.reshape(rho.shape[0], -1)
    matrix = np.diag(1.0 - (rho**2).sum(axis=1)) + rho @ rho.T
    return np.linalg.eigvalsh(matrix)[::-1]


def equicorrelation_eigenvalues(n_assets: int, rho_sq: float) -> np.ndarray:
    """Closed-form descending spectrum of the equal-loading (equicorrelated)
    matrix: 1 + (N-1)*rho_sq once and 1 - rho_sq with multiplicity N-1."""
    values = np.full(n_assets, 1.0 - rho_sq)
    values[0] = 1.0 + (n_assets - 1) * rho_sq
    return values


def reduced_determinant(rho, lam: float) -> float:
    """det(I_F - phi(lam)) by LU, whose zeros above 1 are correlation eigenvalues.

    phi[f, g](lam) = sum_i rho[i, f] rho[i, g] / (lam - 1 + |rho_i|^2) over the
    rows with nonzero loadings (a zero row adds no term); lam must not sit on a
    pole 1 - |rho_i|^2 of a nonzero row.
    """
    rho = np.asarray(rho, dtype=np.float64)
    row_sq = (rho**2).sum(axis=1)
    live = row_sq > 0.0
    rho = rho[live]
    phi = rho.T @ (rho / (lam - 1.0 + row_sq[live])[:, None])
    return float(np.linalg.det(np.eye(rho.shape[1]) - phi))


def _float_diagonal_loadings(rho):
    # the matrix a float solver holds: diagonal d_i = 1 - |rho_i|^2 as rounded
    # in float64, loadings rho exactly, everything after in mpmath
    rho = np.asarray(rho, dtype=np.float64).reshape(len(rho), -1)
    d = 1.0 - (rho**2).sum(axis=1)
    return mpmath.matrix(rho.tolist()), [mpmath.mpf(float(x)) for x in d]


def mp_loading_spectrum(rho, digits: int = 50) -> np.ndarray:
    """Descending eigenvalues of diag(1 - |rho_i|^2) + rho rho^T by mpmath's
    Jacobi eigensolver at `digits` digits, rounded to float64.

    rho is a vector (one factor) or an (n_assets, n_factors) matrix.
    """
    with mpmath.workdps(digits):
        r, d = _float_diagonal_loadings(rho)
        matrix = r * r.T
        for i, di in enumerate(d):
            matrix[i, i] += di
        values = mpmath.eigsy(matrix, eigvals_only=True)
        return np.sort([float(v) for v in values])[::-1]


def mp_eigenvalue_count(rho, lam: float, digits: int = 40) -> int:
    """#eig > lam of diag(1 - rho_i^2) + rho rho^T (one factor) at `digits`
    digits: #{d_i > lam} + [sum_i rho_i^2 / (lam - d_i) > 1] (Haynsworth).

    lam must not sit on a pole d_i of a nonzero loading.
    """
    with mpmath.workdps(digits):
        r, d = _float_diagonal_loadings(rho)
        lam = mpmath.mpf(float(lam))
        secular = mpmath.fsum(x**2 / (lam - di) for x, di in zip(r, d) if x != 0)
        return sum(di > lam for di in d) + int(secular > 1)


_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_LINE_SEPARATORS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks
_INDEX = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


def _number(token: str, grammar: str):
    # the number a row token holds: blanks are spaces and tabs, or quotes around it alone
    match = re.fullmatch(rf'[ \t]*({grammar})[ \t]*|"({grammar})"', token)
    return match and (match[1] or match[2])


def reference_panel(text: str):
    """The panel CSV `text` as the README's *File formats* reads it:
    (labels, base_scale, (N, T) returns), or the first physical line it
    refuses, or None for a file with no data rows.

    Lines break at LF, CRLF and CR after an optional leading BOM.  Line 1 is
    strict CSV, `time` (in any case) then labels, stripped, each non-empty,
    distinct and free of line separators.  Every non-empty later line is an
    int64 time index and one ASCII decimal per label, finite, with the time
    indices strictly increasing; a uniform stride is the bar length, else 1.
    """
    lines = _LINE_BREAK.split(text.removeprefix("\ufeff"))
    try:
        header = next(csv.reader([lines[0]], strict=True), [])
    except csv.Error:
        return 1
    labels = tuple(label.strip() for label in header[1:])
    if (not labels or header[0].strip().lower() != "time" or not all(labels)
            or len(set(labels)) < len(labels)
            or any(c in _LINE_SEPARATORS for c in "".join(labels))):
        return 1
    times, rows = [], []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        tokens = line.split(",")
        fields = [_number(token, _DECIMAL if k else _INDEX) for k, token in enumerate(tokens)]
        if len(fields) != len(labels) + 1 or not all(fields):
            return number
        row = [float(field) for field in fields[1:]]
        if (not -2**63 <= int(fields[0]) < 2**63 or not all(map(math.isfinite, row))
                or times and int(fields[0]) <= times[-1]):
            return number
        times.append(int(fields[0]))
        rows.append(row)
    if not rows:
        return None
    strides = {later - earlier for earlier, later in zip(times, times[1:])}
    return labels, strides.pop() if len(strides) == 1 else 1, np.array(rows).T


def reference_beta(text: str):
    """The beta file `text` as the README's *File formats* reads it: its
    (N, F) loadings, or the first physical line it refuses, or None for a file
    with no data rows.

    Lines break at LF, CRLF and CR after an optional leading BOM, and empty
    lines are skipped.  Every other line holds as many comma-separated ASCII
    decimals as the first, each finite, in the panel's number grammar.
    """
    rows = []
    for number, line in enumerate(_LINE_BREAK.split(text.removeprefix("\ufeff")), 1):
        if not line:
            continue
        fields = [_number(token, _DECIMAL) for token in line.split(",")]
        if not all(fields) or rows and len(fields) != len(rows[0]):
            return number
        row = [float(field) for field in fields]
        if not all(map(math.isfinite, row)):
            return number
        rows.append(row)
    return np.array(rows) if rows else None
