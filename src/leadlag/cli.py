"""Command-line interface.

Subcommands cover the full workflow:

    simulate   generate a synthetic return panel CSV from model parameters
    spectrum   panel CSV -> top-k correlation eigenvalue curves across a tau grid
    fit        curves file -> fitted (alpha, amplitude) per rank
    plot       curves (+ optional fits) -> one SVG per rank
    reproduce  canonical synthetic scenario end to end into a report directory

Exit codes: 0 success, 2 usage or validation error, 3 data error,
4 numerical failure.  Every subcommand is deterministic given its flags and
seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .errors import ConvergenceError, DataError, ValidationError, _integer
from .model import ModelSpec, _checked_steps, _default_labels, _emitted_blocks
from .panel_io import (load_curves, load_fits, save_curves, save_fits, _atomic_write_text,
                       _PanelSource, _read_beta_file, _read_json_object, _write_panel)
# not called here; benchmark/tracing.py wraps these names in this module
from .model import simulate_panel  # noqa: F401
from .panel_io import load_panel, save_panel  # noqa: F401
from .svgplot import render_eigencurve

__all__ = ["main", "entrypoint"]

_DEFAULT_TAUS = ",".join(str(t) for t in pipeline.DYADIC_TAUS)


def _parse_list(text: str, name: str, kind=float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"--{name} expects a comma-separated list of {noun}")
    return values


def _scalar_or_vector(text: str, name: str):
    values = _parse_list(text, name)
    return values[0] if len(values) == 1 else np.asarray(values)


def _spec_from_args(args) -> ModelSpec:
    if args.spec_file:
        raw = _read_json_object(args.spec_file, "spec file ")
        try:
            return ModelSpec(
                n_assets=raw["n_assets"],
                n_factors=raw.get("n_factors", 1),
                alpha=raw["alpha"],
                sigma=raw.get("sigma", 1.0),
                factor_sigma=raw.get("factor_sigma", 1.0),
                beta=raw["beta"],
                seed=raw.get("seed", args.seed),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"spec file {args.spec_file}: malformed spec "
                            f"({type(exc).__name__}: {exc})") from exc

    if args.assets is None or args.alpha is None:
        raise ValidationError("--assets and --alpha are required (or use --spec-file)")
    sources = [s for s in (args.beta, args.beta_file, args.gamma) if s is not None]
    if len(sources) != 1:
        raise ValidationError("provide exactly one of --beta, --beta-file, --gamma")

    if args.gamma is not None:
        if args.factors != 1:
            raise ValidationError("--gamma defines a one-factor model; use --beta-file for more")
        return ModelSpec.single_factor(args.assets, args.gamma, args.alpha, seed=args.seed)

    sigma = _scalar_or_vector(args.sigma, "sigma")
    factor_sigma = _scalar_or_vector(args.factor_sigma, "factor-sigma")
    if args.beta is not None:
        beta = _scalar_or_vector(args.beta, "beta")
    else:
        shape = (_integer(args.assets, "n_assets"), _integer(args.factors, "n_factors"))
        beta = _read_beta_file(args.beta_file, shape)
    return ModelSpec(args.assets, args.factors, args.alpha, sigma, factor_sigma,
                     beta, seed=args.seed)


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    n_steps, burn_in = _checked_steps(spec, args.steps, args.burn_in)
    _write_panel(args.out, _default_labels(spec.n_assets), 1, n_steps,
                 _emitted_blocks(spec, n_steps, burn_in, 1024))
    print(f"simulated panel: {spec.n_assets} assets x {n_steps} steps "
          f"({spec.n_factors} factor(s), alpha={spec.alpha}, burn-in {burn_in}, "
          f"seed {spec.seed}) -> {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    source = _PanelSource(getattr(args, "in"), args.compounding)
    taus = _parse_list(args.taus, "taus", int)
    curves = pipeline._eigencurves(source, source.labels, taus, args.top_k)
    save_curves(curves, args.out, n_assets=len(source.labels), base_scale_minutes=source.scale)
    print(f"spectrum: {len(curves)} eigenvalue curve(s) over taus {list(taus)} "
          f"(correlation) -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    curves, meta = load_curves(getattr(args, "in"))
    n_assets = args.assets if args.assets is not None else meta.get("n_assets")
    if n_assets is None:
        raise ValidationError("curves file carries no n_assets; pass --assets")
    base_scale = (args.base_scale_minutes if args.base_scale_minutes is not None
                  else meta["base_scale_minutes"])
    if args.ranks is not None:
        wanted = set(_parse_list(args.ranks, "ranks", int))
        missing = wanted - {c.rank for c in curves}
        if missing:
            raise DataError("requested rank(s) not in curves file: "
                            + ", ".join(str(r) for r in sorted(missing)))
        curves = [c for c in curves if c.rank in wanted]

    results = pipeline.fit_curves(curves, n_assets, base_scale)
    succeeded = [(rank, fit) for rank, fit, err in results if fit is not None]
    for rank, _, err in results:
        if err is not None:
            print(f"rank {rank}: fit skipped: {err}", file=sys.stderr)
    if not succeeded:
        raise ConvergenceError("no curve could be fitted")
    save_fits(succeeded, args.out, n_assets=n_assets, base_scale_minutes=base_scale)

    print(f"{'rank':>4} {'gamma_f':>10} {'alpha':>8} {'t_alpha(min)':>13} "
          f"{'rss':>12} {'converged':>10}")
    for rank, fit in succeeded:
        print(f"{rank:>4} {fit.gamma_f:>10.4f} {fit.alpha:>8.4f} {fit.t_alpha:>13.4f} "
              f"{fit.rss:>12.4e} {str(fit.converged):>10}")
    print(f"fits -> {args.out}")
    return 0


def _cmd_plot(args) -> int:
    curves, _ = load_curves(args.curves)
    fits_by_rank = {}
    if args.fits is not None:
        fits, _ = load_fits(args.fits)
        fits_by_rank = {rank: fit for rank, fit in fits}
        curve_ranks = {c.rank for c in curves}
        mismatch = curve_ranks.symmetric_difference(fits_by_rank)
        if mismatch:
            raise DataError("curve and fit rank sets differ; missing rank(s): "
                            + ", ".join(str(r) for r in sorted(mismatch)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for curve in curves:
        svg = render_eigencurve(curve, fits_by_rank.get(curve.rank), log_x=args.log_x)
        target = out_dir / f"eigencurve_rank{curve.rank}.svg"
        _atomic_write_text(target, svg)
        print(f"wrote {target}")
    return 0


def _cmd_reproduce(args) -> int:
    strengths = _parse_list(args.gammas, "gammas")
    report = pipeline.reproduce_report(
        args.out_dir,
        n_assets=args.assets,
        strengths=strengths,
        alpha=args.alpha,
        n_steps=args.steps,
        seed=args.seed,
        taus=_parse_list(args.taus, "taus", int),
        log_x=not args.linear_x,
    )
    counter = report["counterfactual"]
    print(f"report -> {args.out_dir}")
    print(f"alpha=0 counterfactual level: {counter['amplitude_alpha0']:.2f}")
    print(f"alpha={counter['alpha']} large-tau limit: {counter['limit_with_memory']:.2f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadlag",
        description="Lead-lag factor model of correlation eigenvalues across "
                    "return-aggregation scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a synthetic return panel")
    sim.add_argument("--assets", type=int, help="number of assets N")
    sim.add_argument("--factors", type=int, default=1, help="number of factors F")
    sim.add_argument("--alpha", type=float, help="memory decay in [0, 1)")
    sim.add_argument("--sigma", default="1.0",
                     help="idiosyncratic volatility (scalar or comma list of N)")
    sim.add_argument("--factor-sigma", default="1.0",
                     help="factor volatility (scalar or comma list of F)")
    sim.add_argument("--beta", help="sensitivity (scalar, or comma list of N when F=1)")
    sim.add_argument("--beta-file", help="CSV file with N rows x F columns of sensitivities")
    sim.add_argument("--gamma", type=float,
                     help="uniform signal-to-noise ratio (one-factor shortcut)")
    sim.add_argument("--steps", type=int, required=True, help="emitted panel length")
    sim.add_argument("--burn-in", type=int, default=None,
                     help="override the automatic stationarity burn-in")
    sim.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sim.add_argument("--spec-file", help="JSON file with the full model spec")
    sim.add_argument("--out", required=True, help="output panel CSV path")
    sim.set_defaults(func=_cmd_simulate)

    spec = sub.add_parser("spectrum", help="correlation eigenvalue curves across scales")
    spec.add_argument("--in", required=True, help="input panel CSV")
    spec.add_argument("--taus", default=_DEFAULT_TAUS,
                      help="comma-separated ascending aggregation scales")
    spec.add_argument("--top-k", type=int, default=4, help="number of top eigenvalues")
    spec.add_argument("--compounding", choices=("arithmetic", "geometric"),
                      default="arithmetic", help="return compounding on load")
    spec.add_argument("--out", required=True, help="output curves JSON")
    spec.set_defaults(func=_cmd_spectrum)

    fit = sub.add_parser("fit", help="fit (alpha, amplitude) to eigenvalue curves")
    fit.add_argument("--in", required=True, help="input curves JSON")
    fit.add_argument("--assets", type=int, default=None,
                     help="override the asset count recorded in the curves file")
    fit.add_argument("--base-scale-minutes", type=float, default=None,
                     help="bar length in minutes for the relaxation time")
    fit.add_argument("--ranks", default=None, help="comma-separated subset of ranks")
    fit.add_argument("--out", required=True, help="output fits JSON")
    fit.set_defaults(func=_cmd_fit)

    plot = sub.add_parser("plot", help="render curves (and fits) as SVG files")
    plot.add_argument("--curves", required=True, help="curves JSON")
    plot.add_argument("--fits", default=None, help="fits JSON (optional overlay)")
    plot.add_argument("--out-dir", required=True, help="directory for SVG output")
    plot.add_argument("--log-x", action="store_true", help="log-scale tau axis")
    plot.set_defaults(func=_cmd_plot)

    rep = sub.add_parser("reproduce", help="run the canonical synthetic scenario")
    rep.add_argument("--out-dir", required=True, help="report directory")
    rep.add_argument("--assets", type=int, default=pipeline.REFERENCE_N_ASSETS)
    rep.add_argument("--alpha", type=float, default=pipeline.REFERENCE_ALPHA)
    rep.add_argument("--gammas",
                     default=",".join(str(g) for g in pipeline.REFERENCE_STRENGTHS),
                     help="descending factor strengths")
    rep.add_argument("--steps", type=int, default=1 << 16)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--taus", default=_DEFAULT_TAUS)
    rep.add_argument("--linear-x", action="store_true", help="linear tau axis in plots")
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
