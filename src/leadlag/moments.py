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

As factor_variance_sum / (1 - alpha)^2 = tau / attenuation, every closed
form weighs the factors through the scaled loadings K = B / sqrt(attenuation),
B[i, f] = factor_sigma_f * beta[i, f].  The covariance of tau-aggregated
returns is C = tau * (K K^T + diag(sigma^2)), and the correlation matrix is
that covariance normalized to unit diagonal; its off-diagonal entries equal
sum_f rho[i, f] * rho[j, f] for the loadings
rho[i, f] = K[i, f] / sqrt(|K_i|^2 + sigma_i^2) of `spectral.loading_matrix`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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

# bytes and steps per chunk of the streamed engine.  Fewer bytes mean thinner gemms
# (533 x 65,536, 2-core VM: 3.1 s at 4 MiB, 1.3-1.6 s at 16 MiB, 2.0-2.7 s dense),
# but the work goes with steps, so longer chunks buy only memory (100 x 10^6: 0.890 s
# at 11,904, 0.881 s at 20,864, 0.949 s at 8,192 of 2^16-byte rows; medians of 7).
_CHUNK_BYTES, _CHUNK_STEPS = 16 << 20, 12_000


@dataclass(frozen=True)
class ScaleMatrix:
    """Covariance or correlation matrix of aggregated returns, square and
    symmetric within tolerance (correlations come clipped by `_normalize`)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("matrix must be square")
        norm = float(np.max(np.abs(arr), initial=1.0))
        if float(np.max(np.abs(arr - arr.T), initial=0.0)) > _SYM_TOL * norm:
            raise ValidationError("matrix is not symmetric within tolerance")
        object.__setattr__(self, "values", arr)


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


def _scale_loadings(spec: ModelSpec, tau: int) -> np.ndarray:
    # K = B / sqrt(attenuation(alpha, tau)), B[i, f] = factor_sigma_f * beta[i, f]:
    # the only place the closed forms turn (alpha, tau) into a factor weight
    eta = attenuation(spec.alpha, _integer(tau, "tau"))
    return spec.beta * (spec.factor_sigma / math.sqrt(eta))[None, :]


def theoretical_covariance(spec: ModelSpec, tau: int) -> ScaleMatrix:
    """Model covariance of tau-aggregated returns, tau * (K K^T + diag(sigma^2))
    for the scaled loadings K = B / sqrt(attenuation(alpha, tau)).

    tau K K^T is the factor block with its accumulated smoothing variance
    factor_variance_sum(alpha, tau) / (1 - alpha)^2; tau * sigma_i^2 is the
    diffusive idiosyncratic part.
    """
    scaled = _scale_loadings(spec, tau)
    cov = scaled @ scaled.T
    cov[np.diag_indices_from(cov)] += spec.sigma**2
    return ScaleMatrix(tau * cov)


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
    return ScaleMatrix(_normalize(cov.values))


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
    centered = panel.returns - panel.returns.mean(axis=1, keepdims=True)
    return ScaleMatrix(centered @ centered.T / (t - 1))


def sample_correlation(panel: ReturnPanel) -> ScaleMatrix:
    """Sample correlation; diagonal exactly 1.

    Raises DataError naming the first asset whose sample variance is zero.
    """
    cov = sample_covariance(panel).values
    return ScaleMatrix(_correlation(cov, panel.asset_labels))


def _chunk_length(n_assets: int, taus) -> int:
    # steps per chunk: what fits _CHUNK_BYTES and _CHUNK_STEPS, rounded down
    # to a multiple of lcm(taus) where one fits, so that no block straddles two
    # chunks and no tail is carried (long-panel's curves on 2 cores: 1.7-1.8 s,
    # 1.9-2.1 s unrounded)
    steps = max(1, min(_CHUNK_STEPS, _CHUNK_BYTES // (8 * n_assets)))
    lcm = math.lcm(*taus)
    return steps // lcm * lcm or steps


def _block_sums(x: np.ndarray, ratio: int) -> np.ndarray:
    # sums of `ratio` consecutive columns of x, a trailing remainder dropped, by strided adds,
    # faster than numpy's reduction (long-panel's curves, 2 cores: 1.8-2.1 s against 3.8-4.0 s)
    if ratio == 1:
        return x
    end = x.shape[1] // ratio * ratio
    sums = x[:, 0:end:ratio] + x[:, 1:end:ratio]
    for k in range(2, ratio):
        sums += x[:, k:end:ratio]
    return sums


def _contrasts(x: np.ndarray, ratio: int) -> list[np.ndarray]:
    # sqrt(2) times the ratio - 1 orthonormal Helmert contrasts of each whole group of `ratio`
    # columns of x: its cross-product is 1/ratio of its sum's plus half of theirs (a - b at 2)
    end = x.shape[1] // ratio * ratio
    head, parts = x[:, 0:end:ratio], [x[:, 0:end:ratio] - x[:, 1:end:ratio]]
    for j in range(2, ratio):
        head = head + x[:, j - 1:end:ratio]
        parts.append((head - j * x[:, j:end:ratio]) * math.sqrt(2 / (j * j + j)))
    return parts


def _panel_chunks(returns: np.ndarray, length: int) -> Iterator[np.ndarray]:
    # the engine's chunks of a panel in memory: views of `length` columns
    return (returns[:, start:start + length] for start in range(0, returns.shape[1], length))


class _ScaleMoments:
    """Sample covariance of the tau-aggregated rows of a panel for each tau
    of the ascending grid `taus`, in one pass: `add` takes the panel's
    consecutive (N, <= _chunk_length) column blocks in order.

    covariances(min_blocks) equals sample_covariance(aggregate_returns(panel,
    tau)) to rounding, and refuses short scales: DataError lists every tau
    that left fewer than `min_blocks` (>= 2) blocks.  A scale's block sums
    start at multiples of tau and are summed from its source's, the largest
    earlier grid scale dividing it; those ending a chunk in no block carry
    over.  A tau-block is shifted by tau times the first chunk's row means
    (Chan, Golub and LeVeque, 1983), so totals add.  A source takes its
    cross-product from its first child c, its heir: r = c/tau blocks have 1/r
    of their sum's plus half that of sqrt(2) times their r - 1 Helmert
    contrasts (Lancaster 1965; a - b at r = 2, the Haar split).  Only the
    sources' contrasts and the leaves' shifted sums are multiplied (T columns
    on the dyadic ladder), then each heir's final tail.  No chunk view is kept.
    """

    def __init__(self, taus):
        self.sources = {tau: max(s for s in (1, *taus[:i]) if tau % s == 0)
                        for i, tau in enumerate(taus)}
        self.last_use = {source: tau for tau, source in self.sources.items()}
        self.heirs = {source: tau for tau, source in reversed(self.sources.items())
                      if source in self.sources and source < tau}
        self.steps, self.shift, self.tails = 0, None, {}  # tails[tau]: its source's leftover sums
        self.cross = dict.fromkeys(taus, 0.0)  # a source's contrast product, a leaf's own
        self.pending = {tau: [] for tau in taus}  # the columns not yet in self.cross
        self.totals = dict.fromkeys(taus, 0.0)  # a leaf's shifted block sums, summed

    def add(self, chunk: np.ndarray) -> None:
        self.shift = chunk.mean(axis=1, keepdims=True) if self.shift is None else self.shift
        self.steps, sums = self.steps + chunk.shape[1], {1: chunk}
        for tau, source in self.sources.items():
            x = sums.pop(source) if self.last_use[source] == tau else sums[source]
            if tau in self.tails:
                x = np.concatenate((self.tails.pop(tau), x), axis=1)
            ratio = tau // source
            if x.shape[1] % ratio:
                self.tails[tau] = x[:, x.shape[1] // ratio * ratio:].copy()
            if self.heirs.get(source) == tau:
                self._multiply(source, _contrasts(x, ratio))
            x = _block_sums(x, ratio)
            if tau in self.last_use:
                sums[tau] = x
            if tau not in self.heirs and x.shape[1]:
                x = x - tau * self.shift
                self.totals[tau] += x.sum(axis=1, keepdims=True)
                self._multiply(tau, [x])

    def _multiply(self, tau, blocks) -> None:
        # tau's columns go into its cross-product once N / 8 are pending: a chunk's
        # at once at most scales, fewer and wider products at the top few
        pending = self.pending[tau] = self.pending[tau] + blocks
        if 8 * sum(block.shape[1] for block in pending) >= len(blocks[0]):
            x = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
            self.cross[tau] += x @ x.T
            pending.clear()

    def covariances(self, min_blocks: int) -> list[np.ndarray]:
        if short := [str(tau) for tau in self.sources if self.steps // tau < min_blocks]:
            raise DataError("aggregation scale(s) exceed usable series length: "
                            + ", ".join(short))
        derived, covs = {}, {}  # tau -> its (cross, sum) until its source takes them
        for tau in reversed(self.sources):  # in place on new arrays, for fewer N x N at once
            x = np.concatenate([self.shift[:, :0], *self.pending[tau]], axis=1)
            cross, total, heir = x @ x.T + self.cross[tau], self.totals[tau], self.heirs.get(tau)
            if heir:
                orphans = self.tails.get(heir, self.shift[:, :0]) - tau * self.shift
                cross /= 2
                cross += orphans @ orphans.T
                cross += derived[heir][0] / (heir // tau)
                total = derived.pop(heir)[1] + orphans.sum(axis=1, keepdims=True)
            derived[tau], count = (cross, total), self.steps // tau
            covs[tau] = (cross - total @ total.T / count) / (count - 1)
        return [covs[tau] for tau in self.sources]
