"""Ingestion and persistence for panels, curves and fits.

Panel CSV format (UTF-8, a leading byte-order mark ignored; LF or CRLF):

    time,AAPL,MSFT,...
    0,0.001,-0.0002,...
    1,0.0,0.0005,...

The first column is an int64 time index and every other cell an ASCII
decimal, quoted or not (no comments; empty lines are skipped).  Time indices
must strictly increase; uniformly strided ones give the bar length in base
units, so aggregated panels round-trip their scale, and gappy ones give 1.
Returns are dimensionless decimals (0.001 = 10 bps), never percentages, with
'.' as the decimal separator whatever the locale.  Panel CSVs stream:
save_panel writes each row as it formats it, and the reader parses and checks
the lines of each ~1 MiB block as one batch, so a file with several faults is
refused at the first in file order.  load_panel holds the batches and the
panel; `leadlag spectrum` copies the batches into one engine chunk.

Results are JSON documents carrying ``"schema": 1``; curves are arrays,
fits are objects.  All floats are written with full shortest-round-trip
precision, so save/load is value-exact.  Writes go to a temporary file in the
destination directory followed by an atomic rename.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, _alpha, _integer, _positive
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

_READ_CHARS = 1 << 20  # characters per read block of a panel CSV


def _read_text(path, what: str = "") -> str:
    # the whole file as UTF-8 text less any byte-order mark; `what` names the file
    try:
        return Path(path).read_text(encoding="utf-8-sig")
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


def _atomic_write_text(path, text) -> None:
    # `text` is a string or an iterable of string pieces, written as they come
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _check_labels(labels) -> None:
    # the rule for a panel file's asset labels, alike on writing and reading
    if not labels:
        raise DataError("a panel file needs at least one asset")
    if not all(labels):
        raise DataError("asset labels must be non-empty")
    if len(set(labels)) != len(labels):
        dup = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
        raise DataError(f"duplicate asset label {dup!r} in header")


def save_panel(panel: ReturnPanel, path) -> None:
    """Write a panel as CSV; the time stride encodes the base scale.

    Labels are quoted only where CSV needs it (a ',' or a '"'); a label with
    a line break, or with leading or trailing whitespace (which load_panel
    strips), is rejected, as are labels load_panel refuses, and a panel whose
    last time index exceeds the int64 range load_panel reads.
    """
    for lbl in panel.asset_labels:
        if "".join(lbl.splitlines()) != lbl:
            raise DataError(f"asset label {lbl!r} contains a line break")
        if lbl.strip() != lbl:
            raise DataError(f"asset label {lbl!r} has leading or trailing whitespace")
    _check_labels(panel.asset_labels)
    last = (panel.n_steps - 1) * panel.base_scale
    if last > np.iinfo(np.int64).max:
        raise DataError(f"last time index {last} exceeds the int64 range")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(("time", *panel.asset_labels))
    rows = (f"{i * panel.base_scale}," + ",".join(map(repr, row.tolist())) + "\n"
            for i, row in enumerate(panel.returns.T))
    _atomic_write_text(path, itertools.chain((header.getvalue(),), rows))


def _parse_rows(lines, n_assets: int) -> np.ndarray:
    # the one grammar of a panel row: an int64 time index, then n_assets floats
    return np.loadtxt(lines, dtype=[("time", np.int64), ("returns", np.float64, (n_assets,))],
                      delimiter=",", comments=None, quotechar='"', ndmin=1)


def _checked_rows(path, body, numbers, labels, compounding: str, last):
    # the (returns, times) of the non-empty lines `body` on physical lines
    # `numbers`, after the time index `last` (none before the first row):
    # returns C-ordered, log-gross when geometric.  DataError at the first fault.
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
            if lo:  # a fault in the lines before it comes first
                _checked_rows(path, body[:lo], numbers, labels, compounding, last)
            raise DataError(f"{path}: line {numbers[lo]}: bad time index or return "
                            f"value ({line_exc})") from line_exc
        raise DataError(f"{path}: {exc}") from exc

    returns = np.array(table["returns"])
    bad = ~np.isfinite(returns)
    if compounding == "geometric":
        bad |= returns <= -1.0
    times = np.concatenate((last, table["time"]))
    backwards = times[1:] <= times[:-1]  # neighbours compared, never subtracted
    row = int(bad.argmax()) // len(labels) if bad.any() else len(body)
    k = int(backwards.argmax()) if backwards.any() else len(times)
    if k + 1 - len(last) < row:
        raise DataError(f"{path}: line {numbers[k + 1 - len(last)]}: time index "
                        f"{times[k + 1]} does not exceed the previous one ({times[k]})")
    if row < len(body):
        j = int(bad[row].argmax())
        reason = ("non-finite return" if not math.isfinite(returns[row, j])
                  else "return <= -100% cannot be compounded geometrically")
        raise DataError(f"{path}: line {numbers[row]}: asset {labels[j]!r}: {reason}")
    if compounding == "geometric":
        np.log1p(returns, out=returns)
    return returns, times


def _panel_batches(path, compounding: str):
    # a panel CSV's labels, then per batch (its _checked_rows returns, the bar
    # length so far).  A batch is the lines a block of _READ_CHARS characters
    # completes: the block's last piece, which may end inside a line or a CRLF,
    # opens the next block, so lines split as in the whole text.
    path = Path(path)
    labels, number, held, block = None, 1, "", True
    last, stride, uniform = np.empty(0, np.int64), 0, True
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            while block:
                block = handle.read(_READ_CHARS)
                text = held + block
                held = text.splitlines(keepends=True)[-1] if block else ""
                lines = text[:len(text) - len(held)].splitlines()
                if labels is None and (lines or not block):
                    header = next(csv.reader(lines[:1]), [])  # an empty file has none
                    if len(header) < 2 or header[0].strip().lower() != "time":
                        raise DataError(f"{path}: line 1: header must be 'time,<label>,...'")
                    labels = tuple(lbl.strip() for lbl in header[1:])
                    _check_labels(labels)
                    yield labels
                    lines, number = lines[1:], 2
                numbers = [n for n, line in enumerate(lines, number) if line]
                number += len(lines)
                if numbers:
                    returns, times = _checked_rows(path, [line for line in lines if line],
                                                   numbers, labels, compounding, last)
                    strides = np.diff(times.view(np.uint64))  # exact, as times increase
                    stride = stride or (int(strides[0]) if strides.size else 0)
                    uniform = uniform and bool(np.all(strides == stride))
                    last = times[-1:]
                    yield returns, stride if uniform and stride else 1
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    if not last.size:
        raise DataError(f"{path}: no data rows")


def load_panel(path) -> ReturnPanel:
    """Read a panel CSV: the concatenated batches of its streamed reader."""
    batches = _panel_batches(path, "arithmetic")
    labels = next(batches)
    returns, scales = zip(*batches)
    return ReturnPanel(np.concatenate(returns).T, base_scale=scales[-1], asset_labels=labels)


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _run_metadata(n_assets, base_scale_minutes, ranks, path) -> dict:
    # a results document's run metadata, checked alike on writing and reading by
    # the fitter's rule for a run (a file may omit the asset count); one entry per rank
    if len(set(ranks)) < len(ranks):
        raise DataError(f"{path}: repeated rank {max(ranks, key=ranks.count)}")
    try:
        count, scale = _check_run(1 if n_assets is None else n_assets, base_scale_minutes)
        return {"n_assets": None if n_assets is None else count, "base_scale_minutes": scale}
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _save_entries(path, kind: str, entries: list, n_assets, base_scale_minutes) -> None:
    # the writing half of _load_entries: the same run and rank rules, then an atomic write
    meta = _run_metadata(n_assets, base_scale_minutes, [e["rank"] for e in entries], path)
    _atomic_write_text(path, _dump({"schema": SCHEMA_VERSION, "kind": kind, **meta,
                                    kind: entries}))


def _load_entries(path, kind: str, parse) -> tuple[list, dict]:
    # the parsed entries of a results document of this kind, and its metadata
    document = _read_json_object(path)
    if document.get("schema") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema {document.get('schema')!r}")
    if document.get("kind") != kind:
        raise DataError(f"{path}: expected kind {kind!r}, got {document.get('kind')!r}")
    try:
        entries = [parse(entry) for entry in document[kind]]
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} ({type(exc).__name__}: {exc})") from exc
    ranks = [entry["rank"] for entry in document[kind]]
    return entries, _run_metadata(document.get("n_assets"),
                                  document.get("base_scale_minutes", 1.0), ranks, path)


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
        alpha=_alpha(entry["alpha"]),
        amplitude=_positive(entry["amplitude"], "amplitude"),
        gamma_f=_positive(entry["gamma_f"], "gamma_f"),
        t_alpha=_positive(entry["t_alpha_minutes"], "t_alpha_minutes", allow_zero=True),
        rss=_positive(entry["rss"], "rss", allow_zero=True),
        iterations=_integer(entry["iterations"], "iterations", minimum=0),
        converged=entry["converged"],
    )


def load_fits(path) -> tuple[list[tuple[int, FitResult]], dict]:
    return _load_entries(path, "fits", _fit_entry)
