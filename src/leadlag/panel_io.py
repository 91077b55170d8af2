"""Ingestion and persistence for panels, curves and fits.

Panel CSV format (UTF-8, LF or CRLF):

    time,AAPL,MSFT,...
    0,0.001,-0.0002,...
    1,0.0,0.0005,...

The first column is an int64 time index and every other cell an ASCII
decimal, quoted or not (no comments; empty lines are skipped).  Uniformly
strided time indices give the bar length in base units, so aggregated panels
round-trip their scale.  Returns are dimensionless decimals (0.001 = 10 bps),
never percentages, with '.' as the decimal separator whatever the locale.

Results are JSON documents carrying ``"schema": 1``; curves are arrays,
fits are objects.  All floats are written with full shortest-round-trip
precision, so save/load is value-exact.  Writes go to a temporary file in the
destination directory followed by an atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, ValidationError, _integer
from .fitting import EigenCurve, FitResult, _check_run
from .model import ReturnPanel

__all__ = [
    "load_panel",
    "save_panel",
    "save_curves",
    "load_curves",
    "save_fits",
    "load_fits",
]

SCHEMA_VERSION = 1


def _read_text(path, what: str = "") -> str:
    # the whole file as UTF-8 text; `what` names the file in error messages
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what}{path} is not UTF-8 text: {exc}") from exc


def _read_json_object(path, what: str = "") -> dict:
    try:
        document = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataError(f"{what}{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError(f"{what}{path}: top level must be a JSON object")
    return document


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_panel(panel: ReturnPanel, path) -> None:
    """Write a panel as CSV; the time stride encodes the base scale.

    Labels are quoted only where CSV needs it (a ',' or a '"'); a label with
    a line break, or with leading or trailing whitespace (which load_panel
    strips), is rejected.
    """
    for lbl in panel.asset_labels:
        if "".join(lbl.splitlines()) != lbl:
            raise DataError(f"asset label {lbl!r} contains a line break")
        if lbl.strip() != lbl:
            raise DataError(f"asset label {lbl!r} has leading or trailing whitespace")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(("time", *panel.asset_labels))
    rows = (f"{i * panel.base_scale}," + ",".join(map(repr, row.tolist())) + "\n"
            for i, row in enumerate(panel.returns.T))
    _atomic_write_text(path, header.getvalue() + "".join(rows))


def _parse_rows(lines, n_assets: int) -> np.ndarray:
    # the one grammar of a panel row: an int64 time index, then n_assets floats
    return np.loadtxt(lines, dtype=[("time", np.int64), ("returns", np.float64, (n_assets,))],
                      delimiter=",", comments=None, quotechar='"', ndmin=1)


def load_panel(path, compounding: str = "arithmetic") -> ReturnPanel:
    """Read a panel CSV.

    compounding="geometric" converts simple returns r into log-gross returns
    ln(1 + r) on load, so that downstream arithmetic block sums compound
    multiplicatively; the default leaves values untouched.
    """
    if compounding not in ("arithmetic", "geometric"):
        raise ValidationError("compounding must be 'arithmetic' or 'geometric'")
    path = Path(path)
    lines = _read_text(path).splitlines()
    header = next(csv.reader(lines[:1]), [])  # an empty file has an empty header
    if len(header) < 2 or header[0].strip().lower() != "time":
        raise DataError(f"{path}: line 1: header must be 'time,<label>,...'")
    labels = tuple(lbl.strip() for lbl in header[1:])
    if any(not lbl for lbl in labels):
        raise DataError("asset labels must be non-empty")
    if len(set(labels)) != len(labels):
        dup = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
        raise DataError(f"duplicate asset label {dup!r} in header")

    line_numbers = [ln for ln, line in enumerate(lines[1:], start=2) if line]
    body = [line for line in lines[1:] if line]
    if not body:
        raise DataError(f"{path}: no data rows")
    try:
        table = _parse_rows(body, len(labels))
    except ValueError as exc:
        # bisect for the first line the grammar rejects, then re-parse that line
        # alone for numpy's reason
        lo, hi = 0, len(body)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse_rows(body[lo:mid], len(labels))
                lo = mid
            except ValueError:
                hi = mid
        try:
            _parse_rows(body[lo:hi], len(labels))
        except ValueError as line_exc:
            raise DataError(f"{path}: line {line_numbers[lo]}: bad time index or return "
                            f"value ({line_exc})") from line_exc
        raise DataError(f"{path}: {exc}") from exc

    returns = np.array(table["returns"])
    bad = ~np.isfinite(returns)
    if compounding == "geometric":
        bad |= returns <= -1.0
    if bad.any():
        row, j = divmod(int(bad.argmax()), len(labels))
        reason = ("non-finite return" if not math.isfinite(returns[row, j])
                  else "return <= -100% cannot be compounded geometrically")
        raise DataError(f"{path}: line {line_numbers[row]}: asset {labels[j]!r}: {reason}")
    arr = returns.T
    if compounding == "geometric":
        arr = np.log1p(arr)
    strides = np.diff(table["time"])
    uniform = strides.size and strides[0] > 0 and np.all(strides == strides[0])
    return ReturnPanel(arr, base_scale=strides[0] if uniform else 1, asset_labels=labels)


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _run_metadata(n_assets, base_scale_minutes, path) -> dict:
    # a results document's run metadata, checked alike on writing and reading by
    # the fitter's rule for a run (a file may omit the asset count)
    try:
        count, scale = _check_run(1 if n_assets is None else n_assets, base_scale_minutes)
        return {"n_assets": None if n_assets is None else count, "base_scale_minutes": scale}
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _save_entries(path, kind: str, entries: list, n_assets, base_scale_minutes) -> None:
    # the writing half of _load_entries: the same metadata rule, then an atomic write
    meta = _run_metadata(n_assets, base_scale_minutes, path)
    _atomic_write_text(path, _dump({"schema": SCHEMA_VERSION, "kind": kind, **meta,
                                    kind: entries}))


def _load_entries(path, kind: str, parse) -> tuple[list, dict]:
    # the parsed entries of a results document of this kind, and its metadata
    document = _read_json_object(path)
    if document.get("schema") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema {document.get('schema')!r}")
    if document.get("kind") != kind:
        raise DataError(f"{path}: expected kind {kind!r}, got {document.get('kind')!r}")
    meta = _run_metadata(document.get("n_assets"), document.get("base_scale_minutes", 1.0), path)
    try:
        entries = [parse(entry) for entry in document[kind]]
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} ({type(exc).__name__}: {exc})") from exc
    return entries, meta


def save_curves(curves: Sequence[EigenCurve], path, *, n_assets: int,
                base_scale_minutes: float = 1.0) -> None:
    _save_entries(path, "curves", [
        {
            "rank": c.rank,
            "taus": c.taus.tolist(),
            "values": [float(v) for v in c.values],
        }
        for c in curves
    ], n_assets, base_scale_minutes)


def load_curves(path) -> tuple[list[EigenCurve], dict]:
    return _load_entries(path, "curves", lambda entry: EigenCurve(
        entry["taus"], entry["values"], rank=entry["rank"]))


def save_fits(fits: Sequence[tuple[int, FitResult]], path, *, n_assets: int,
              base_scale_minutes: float = 1.0) -> None:
    _save_entries(path, "fits", [
        {
            "rank": _integer(rank, "rank"),
            "alpha": fit.alpha,
            "amplitude": fit.amplitude,
            "gamma_f": fit.gamma_f,
            "t_alpha_minutes": fit.t_alpha,
            "rss": fit.rss,
            "iterations": fit.iterations,
            "converged": fit.converged,
        }
        for rank, fit in fits
    ], n_assets, base_scale_minutes)


def _fit_entry(entry: dict) -> tuple[int, FitResult]:
    if not isinstance(entry["converged"], bool):
        raise TypeError(f"converged must be true or false, got {entry['converged']!r}")
    return _integer(entry["rank"], "rank"), FitResult(
        alpha=float(entry["alpha"]),
        amplitude=float(entry["amplitude"]),
        gamma_f=float(entry["gamma_f"]),
        t_alpha=float(entry["t_alpha_minutes"]),
        rss=float(entry["rss"]),
        iterations=_integer(entry["iterations"], "iterations", minimum=0),
        converged=entry["converged"],
    )


def load_fits(path) -> tuple[list[tuple[int, FitResult]], dict]:
    return _load_entries(path, "fits", _fit_entry)
