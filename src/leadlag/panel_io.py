"""Ingestion and persistence for panels, curves and fits.

Panel CSV format (UTF-8, LF or CRLF):

    time,AAPL,MSFT,...
    0,0.001,-0.0002,...
    1,0.0,0.0005,...

The first column is an integer time index; when rows are uniformly strided
the stride is interpreted as the bar length in base units (so aggregated
panels round-trip their scale).  Returns are dimensionless decimals
(0.001 = 10 bps), never percentages.  The decimal separator is always '.',
independent of locale.

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

from .errors import DataError, ValidationError
from .fitting import EigenCurve, FitResult
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
    csv.writer(header, lineterminator="").writerow(("time", *panel.asset_labels))
    lines = [header.getvalue()]
    stride = panel.base_scale
    for i, row in enumerate(panel.returns.T):
        lines.append(str(i * stride) + "," + ",".join(repr(float(v)) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_panel(path, compounding: str = "arithmetic") -> ReturnPanel:
    """Read a panel CSV.

    compounding="geometric" converts simple returns r into log-gross returns
    ln(1 + r) on load, so that downstream arithmetic block sums compound
    multiplicatively; the default leaves values untouched.
    """
    if compounding not in ("arithmetic", "geometric"):
        raise ValidationError("compounding must be 'arithmetic' or 'geometric'")
    path = Path(path)
    rows = list(csv.reader(_read_text(path).splitlines()))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2 or header[0].strip().lower() != "time":
        raise DataError(f"{path}: line 1: header must be 'time,<label>,...'")
    labels = tuple(lbl.strip() for lbl in header[1:])
    n_fields = len(header)

    times = []
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise DataError(f"{path}: line {ln}: expected {n_fields} fields, got {len(row)}")
        try:
            times.append(int(row[0]))
        except ValueError as exc:
            raise DataError(f"{path}: line {ln}: time index {row[0]!r} is not an integer") from exc
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}: line {ln}: unparseable return value") from exc
        for j, v in enumerate(values):
            if not math.isfinite(v):
                raise DataError(f"{path}: line {ln}: non-finite return for asset {labels[j]!r}")
            if compounding == "geometric" and v <= -1.0:
                raise DataError(f"{path}: line {ln}: return <= -100% for asset {labels[j]!r} "
                                "cannot be compounded geometrically")
        data.append(values)
    if not data:
        raise DataError(f"{path}: no data rows")

    if any(not lbl for lbl in labels):
        raise DataError("asset labels must be non-empty")
    if len(set(labels)) != len(labels):
        dup = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
        raise DataError(f"duplicate asset label {dup!r} in header")
    arr = np.asarray(data, dtype=np.float64).T
    if compounding == "geometric":
        arr = np.log1p(arr)
    strides = np.diff(times)
    if strides.size and strides[0] > 0 and np.all(strides == strides[0]):
        scale = int(strides[0])
    else:
        scale = 1
    return ReturnPanel(arr, base_scale=scale, asset_labels=labels)


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _load_entries(path, kind: str, parse) -> tuple[list, dict]:
    # the parsed entries of a results document of this kind, and its metadata
    document = _read_json_object(path)
    if document.get("schema") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema {document.get('schema')!r}")
    if document.get("kind") != kind:
        raise DataError(f"{path}: expected kind {kind!r}, got {document.get('kind')!r}")
    try:
        entries = [parse(entry) for entry in document[kind]]
        n_assets = document.get("n_assets")
        meta = {"n_assets": None if n_assets is None else int(n_assets),
                "base_scale_minutes": float(document.get("base_scale_minutes", 1.0))}
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} ({type(exc).__name__}: {exc})") from exc
    if meta["n_assets"] is not None and meta["n_assets"] < 1:
        raise DataError(f"{path}: n_assets must be positive, got {meta['n_assets']}")
    if not 0.0 < meta["base_scale_minutes"] < math.inf:
        raise DataError(f"{path}: base_scale_minutes must be finite and positive, "
                        f"got {meta['base_scale_minutes']!r}")
    return entries, meta


def save_curves(curves: Sequence[EigenCurve], path, *, n_assets: int,
                base_scale_minutes: float = 1.0) -> None:
    document = {
        "schema": SCHEMA_VERSION,
        "kind": "curves",
        "n_assets": int(n_assets),
        "base_scale_minutes": float(base_scale_minutes),
        "curves": [
            {
                "rank": c.rank,
                "taus": [int(t) for t in c.taus],
                "values": [float(v) for v in c.values],
            }
            for c in curves
        ],
    }
    _atomic_write_text(path, _dump(document))


def load_curves(path) -> tuple[list[EigenCurve], dict]:
    return _load_entries(path, "curves", lambda entry: EigenCurve(
        np.asarray(entry["taus"], dtype=np.int64),
        np.asarray(entry["values"], dtype=np.float64),
        rank=int(entry["rank"])))


def save_fits(fits: Sequence[tuple[int, FitResult]], path, *, n_assets: int,
              base_scale_minutes: float = 1.0) -> None:
    document = {
        "schema": SCHEMA_VERSION,
        "kind": "fits",
        "n_assets": int(n_assets),
        "base_scale_minutes": float(base_scale_minutes),
        "fits": [
            {
                "rank": int(rank),
                "alpha": fit.alpha,
                "amplitude": fit.amplitude,
                "gamma_f": fit.gamma_f,
                "t_alpha_minutes": fit.t_alpha,
                "rss": fit.rss,
                "iterations": fit.iterations,
                "converged": fit.converged,
            }
            for rank, fit in fits
        ],
    }
    _atomic_write_text(path, _dump(document))


def load_fits(path) -> tuple[list[tuple[int, FitResult]], dict]:
    return _load_entries(path, "fits", lambda entry: (
        int(entry["rank"]),
        FitResult(
            alpha=float(entry["alpha"]),
            amplitude=float(entry["amplitude"]),
            gamma_f=float(entry["gamma_f"]),
            t_alpha=float(entry["t_alpha_minutes"]),
            rss=float(entry["rss"]),
            iterations=int(entry["iterations"]),
            converged=bool(entry["converged"]),
        ),
    ))
