"""End-to-end workflows: panel -> eigencurves -> fits -> report.

These are the engines behind the CLI subcommands; they are exposed as plain
functions so tests and scripts can drive the exact same code paths without
going through files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError, _integer, _real, _tau_grid
from .fitting import EigenCurve, FitResult, _check_run, fit_eigencurve
from .model import ModelSpec, _checked_steps, _default_labels, _emitted_blocks
from .moments import ScaleMatrix, _ScaleMoments, _chunk_length, _correlation, _panel_chunks
# not called here; benchmark/tracing.py wraps these names in this module
from .model import simulate_panel  # noqa: F401
from .moments import aggregate_returns, sample_correlation  # noqa: F401
from .panel_io import save_curves, save_fits, _atomic_write_text, _dump
from .spectral import dense_eigenvalues
from .svgplot import render_eigencurve

__all__ = [
    "DYADIC_TAUS",
    "REFERENCE_STRENGTHS",
    "eigencurves_from_model",
    "eigencurves_from_panel",
    "fit_curves",
    "reproduce_report",
]

DYADIC_TAUS = (1, 2, 4, 8, 16, 32, 64, 128)

# canonical demo scenario: market-sized universe, four factors with the
# strengths and memory decay used throughout the docs
REFERENCE_STRENGTHS = (0.17, 0.03, 0.02, 0.01)
REFERENCE_ALPHA = 0.16
REFERENCE_N_ASSETS = 533


def _eigencurves(source, labels, taus, top_k: int) -> list[EigenCurve]:
    # the top-k correlation curves of a panel of len(labels) assets, from the
    # leading eigenvalues at every scale, which one pass over source(length),
    # its consecutive (N, <= length) column chunks, gives.  Every scale must
    # leave top_k + 1 blocks: m blocks give a matrix of rank m - 1 at most.
    taus = tuple(_tau_grid(taus, "tau grid").tolist())
    top_k = _integer(top_k, "top_k")
    if top_k > len(labels):
        raise ValidationError("top_k must lie between 1 and the number of assets")
    scales = _ScaleMoments(taus)
    for chunk in source(_chunk_length(len(labels), taus)):
        scales.add(chunk)
    chunk = None  # not held through the eigensolves (the model's is the simulator's buffer)
    rows = []
    for tau, cov in zip(taus, scales.covariances(top_k + 1)):
        values = dense_eigenvalues(ScaleMatrix(_correlation(cov, labels))).eigenvalues[:top_k]
        zero = values <= len(labels) * np.finfo(float).eps * values[0]  # matrix_rank's floor
        if zero.any():
            raise DataError(f"eigenvalue {int(zero.argmax()) + 1} at tau={tau} is zero to "
                            "rounding: some assets are collinear")
        rows.append(values)
    stacked = np.vstack(rows)
    return [
        EigenCurve(np.asarray(taus, dtype=np.int64), stacked[:, r], rank=r + 1)
        for r in range(top_k)
    ]


def eigencurves_from_panel(panel, taus=DYADIC_TAUS, top_k: int = 4) -> list[EigenCurve]:
    """Top-k eigenvalue curves of the sample correlation matrix across the
    aggregation-scale grid.

    Raises DataError listing any grid scales that leave fewer than top_k + 1
    aggregated observations, and DataError naming the first scale and rank
    whose eigenvalue is zero to rounding (collinear assets).
    """
    return _eigencurves(lambda length: _panel_chunks(panel.returns, length),
                        panel.asset_labels, taus, top_k)


def eigencurves_from_model(spec: ModelSpec, n_steps: int, taus=DYADIC_TAUS,
                           top_k: int = 4) -> list[EigenCurve]:
    """The correlation curves of eigencurves_from_panel(simulate_panel(spec,
    n_steps)), bit for bit, with no panel built.

    The simulator emits the panel's steps chunk by chunk into the engine, so
    memory is a few chunks (16 MiB or 12,000 steps), whatever n_steps is.
    """
    n_steps, burn_in = _checked_steps(spec, n_steps)
    return _eigencurves(lambda length: _emitted_blocks(spec, n_steps, burn_in, length),
                        _default_labels(spec.n_assets), taus, top_k)


def fit_curves(curves, n_assets: int,
               base_scale_minutes: float = 1.0) -> list[tuple[int, FitResult | None, str | None]]:
    """Fit every curve; per-curve failures do not abort the batch.

    Returns (rank, fit, error_message) triples where exactly one of fit and
    error_message is set.  A bad n_assets or base_scale_minutes concerns every
    curve, so it raises ValidationError before any fit.
    """
    _check_run(n_assets, base_scale_minutes)

    def one(curve):
        try:
            return curve.rank, fit_eigencurve(curve, n_assets, base_scale_minutes), None
        except ValidationError as exc:
            return curve.rank, None, str(exc)

    return [one(c) for c in curves]


def reproduce_report(out_dir, *, n_assets: int = REFERENCE_N_ASSETS,
                     strengths=REFERENCE_STRENGTHS, alpha: float = REFERENCE_ALPHA,
                     n_steps: int = 1 << 16, seed: int = 0, taus=DYADIC_TAUS,
                     log_x: bool = True) -> dict:
    """Run the canonical synthetic scenario end to end and write a report.

    Simulates a multi-factor model with orthogonal factors of the given
    strengths straight into correlation eigencurves on the scale grid
    (eigencurves_from_model: no panel is built), fits each rank, renders fit
    overlays as SVG, and emits a parameter-recovery table
    plus the no-memory counterfactual: with alpha forced to 0 the top
    eigenvalue would sit at n_assets * strength_1 at every scale, against the
    tau -> infinity limit n_assets * strength_1 / (1 - alpha)^2 of the fitted
    formula.

    Note: the fitted amplitude systematically undershoots the generating
    n_assets * strength_f, because amplitude / attenuation(tau) is a
    large-eigenvalue approximation of the exact spectrum; the recovery table
    reports both so the gap is visible.
    """
    taus = tuple(_tau_grid(taus, "tau grid").tolist())
    strengths = tuple(_real(g, "strengths") for g in strengths)
    if sorted(strengths, reverse=True) != list(strengths):
        raise ValidationError("strengths must be given in descending order")

    spec = ModelSpec.orthogonal_factors(n_assets, strengths, alpha, seed=seed)
    n_assets, alpha, seed = spec.n_assets, spec.alpha, spec.seed
    n_steps = _integer(n_steps, "n_steps")
    curves = eigencurves_from_model(spec, n_steps, taus, top_k=len(strengths))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_curves(curves, out_dir / "curves.json", n_assets=n_assets)

    fitted = fit_curves(curves, n_assets)
    save_fits([(rank, fit) for rank, fit, err in fitted if fit is not None],
              out_dir / "fits.json", n_assets=n_assets)

    fits_by_rank = {rank: fit for rank, fit, _ in fitted if fit is not None}
    for curve in curves:
        svg = render_eigencurve(curve, fits_by_rank.get(curve.rank), log_x=log_x)
        _atomic_write_text(out_dir / f"eigencurve_rank{curve.rank}.svg", svg)

    amplitude_alpha0 = n_assets * strengths[0]
    limit_with_memory = amplitude_alpha0 / (1.0 - alpha) ** 2
    recovery = []
    for rank, fit, err in fitted:
        generating = {
            "alpha": alpha,
            "amplitude": n_assets * strengths[rank - 1],
            "gamma_f": strengths[rank - 1],
        }
        entry = {"rank": rank, "generating": generating}
        if fit is not None:
            entry["fitted"] = {
                "alpha": fit.alpha,
                "amplitude": fit.amplitude,
                "gamma_f": fit.gamma_f,
                "t_alpha_minutes": fit.t_alpha,
                "rss": fit.rss,
                "converged": fit.converged,
            }
        else:
            entry["error"] = err
        recovery.append(entry)

    report = {
        "schema": 1,
        "kind": "report",
        "config": {
            "n_assets": n_assets,
            "strengths": list(strengths),
            "alpha": alpha,
            "n_steps": n_steps,
            "seed": seed,
            "taus": list(taus),
        },
        "counterfactual": {
            "amplitude_alpha0": amplitude_alpha0,
            "limit_with_memory": limit_with_memory,
            "alpha": alpha,
        },
        "recovery": recovery,
    }
    _atomic_write_text(out_dir / "report.json", _dump(report))

    lines = [
        f"lead-lag reproduction report (seed {seed})",
        f"universe: {n_assets} assets, {len(strengths)} factors, alpha={alpha}, "
        f"{n_steps} steps, taus {list(taus)}",
        "",
        "no-memory counterfactual (rank 1):",
        f"  alpha=0 flat level     n*gamma_1          = {amplitude_alpha0:.2f}",
        f"  alpha={alpha} limit      n*gamma_1/(1-a)^2  = {limit_with_memory:.2f}",
        "",
        "parameter recovery (generating -> fitted):",
        f"  {'rank':>4} {'gen alpha':>10} {'fit alpha':>10} {'gen ampl':>10} "
        f"{'fit ampl':>10} {'t_alpha(min)':>13}",
    ]
    for entry in recovery:
        rank = entry["rank"]
        gen = entry["generating"]
        if "fitted" in entry:
            fit = entry["fitted"]
            lines.append(
                f"  {rank:>4} {gen['alpha']:>10.4f} {fit['alpha']:>10.4f} "
                f"{gen['amplitude']:>10.3f} {fit['amplitude']:>10.3f} "
                f"{fit['t_alpha_minutes']:>13.3f}"
            )
        else:
            lines.append(f"  {rank:>4} fit failed: {entry['error']}")
    lines.append("")
    lines.append("note: fitted amplitudes undershoot generating ones by construction;")
    lines.append("the fitting formula approximates large eigenvalues from above.")
    _atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    return report
