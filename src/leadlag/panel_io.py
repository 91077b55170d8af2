"""Ingestion and persistence for panels, curves and fits; the beta file's reader.

Panel CSV format (UTF-8, a leading byte-order mark ignored; LF, CRLF or CR;
a row's blanks are spaces and tabs, and one holding other whitespace is refused):

    time,AAPL,MSFT,...
    0,0.001,-0.0002,...
    1,0.0,0.0005,...

The first column is an int64 time index and every other cell an ASCII
decimal, quoted or not (no comments; empty lines are skipped).  Time indices
must strictly increase; uniformly strided ones give the bar length in base
units, so aggregated panels round-trip their scale, and gappy ones give 1.
Returns are dimensionless decimals (0.001 = 10 bps), never percentages, with
'.' as the decimal separator whatever the locale.  Panel CSVs stream:
one writer formats each row of a source of column blocks as it writes it
(`leadlag simulate`'s are the simulator's), and the reader reads batches of
whole lines of about 1 MiB and parses and checks each at once; the parse refuses
every fault a row can hold, so one bisection finds a file's first fault in file
order, whatever its kind.  load_panel holds the panel and one batch; the engine's
CSV source copies the batches into one chunk.  A beta file's rows share the number
grammar and the bisection.  moments refuses a variance beyond float64, naming the asset.

Results are JSON documents carrying ``"schema": 1``; curves are arrays,
fits are objects.  All floats are written with full shortest-round-trip
precision, so save/load is value-exact.  Writes go to a temporary file in the
destination directory followed by an atomic rename; a written file has mode
0666 less the umask, as open() gives.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import os
import re
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

_READ_CHARS = 1 << 20  # a panel CSV's readlines hint: characters per batch of lines
_ASCII_SPACES = "\v\f\x1c\x1d\x1e\x1f"  # the ASCII str.isspace characters but " \t\n\r"
_QUOTED_NUMBER = re.compile(r'(?<![^,\r\n])"[^"\s]*"(?![^,\r\n])')  # a whole field in quotes


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
    # `text` is a string or an iterable of string pieces, written as they come.
    # mkstemp makes its file 0600; the result gets open()'s mode, 0666 less the umask
    path = Path(path)
    umask = os.umask(0o022)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines((text,) if isinstance(text, str) else text)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc  # not the temp file


def _check_labels(labels, where: str = "") -> None:
    # the rule for a panel file's asset labels, alike on writing and reading;
    # each refusal starts with `where`, the reader's "<path>: line 1: "
    if not labels:
        raise DataError(f"{where}a panel file needs at least one asset")
    if not all(labels):
        raise DataError(f"{where}asset labels must be non-empty")
    for lbl in labels:  # not even a break that only str.splitlines knows
        if "".join(lbl.splitlines()) != lbl:
            raise DataError(f"{where}asset label {lbl!r} contains a line break")
    if len(set(labels)) != len(labels):
        dup = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
        raise DataError(f"{where}duplicate asset label {dup!r} in header")


def _write_panel(path, labels, base_scale: int, n_steps: int, blocks) -> None:
    # save_panel's file from consecutive (N, <= n_steps) column blocks, each
    # checked as a ReturnPanel and written before the next is asked for
    _check_labels(labels)
    for lbl in labels:
        if lbl.strip() != lbl:
            raise DataError(f"asset label {lbl!r} has leading or trailing whitespace")
    last = (n_steps - 1) * base_scale
    if last > np.iinfo(np.int64).max:
        raise DataError(f"last time index {last} exceeds the int64 range")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(("time", *labels))
    checked = (ReturnPanel(block, asset_labels=labels).returns.T for block in blocks)
    rows = (f"{i * base_scale}," + ",".join(map(repr, row.tolist())) + "\n"
            for i, row in enumerate(itertools.chain.from_iterable(checked)))
    _atomic_write_text(path, itertools.chain((header.getvalue(),), rows))


def save_panel(panel: ReturnPanel, path) -> None:
    """Write a panel as CSV; the time stride encodes the base scale.

    Labels are quoted only where CSV needs it (a ',' or a '"').  Refused: a
    label load_panel would strip (outer whitespace) or refuse (empty, repeated
    or holding a line break), and a last time index beyond int64."""
    _write_panel(path, panel.asset_labels, panel.base_scale, panel.n_steps, (panel.returns,))


def _loadtxt(lines, dtype, ndmin: int) -> np.ndarray:
    # np.loadtxt in the rows' one grammar, refusing a line numpy would misread: any isspace
    # character but spaces, tabs and its LF or CR (ASCII text, O(1) to tell, holds six), a
    # quote left open or a quoted field not a number between quotes alone (numpy joins them).
    # A refusal's reason is numpy's less its row count, which counts only the lines given
    text = "".join(lines)
    spaces = _ASCII_SPACES if text.isascii() else set(text).difference(" \t\n\r")
    if (any(c.isspace() and c in text for c in spaces)
            or '"' in text and any(line.count('"') % 2 for line in lines)):
        raise ValueError("could not convert a line holding whitespace other than spaces "
                         "and tabs, or a quote left open")
    try:
        table = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"', ndmin=ndmin)
    except ValueError as exc:
        raise ValueError(str(exc).rsplit(" at row ", 1)[0]) from None
    if '"' in text and any('"' in _QUOTED_NUMBER.sub("", line) for line in lines):
        raise ValueError("could not convert a field holding more than a number between quotes")
    return table


def _parsed(parse, lines, first: int, where: str):
    # parse(the non-blank `lines`, the first on physical line `first`), None if all are
    # blank.  parse raises ValueError for a fault in any line, so it refuses every longer
    # prefix once it refuses one: a bisection finds the first refused line, which
    # DataError("<where>: line N: <reason>") names
    numbers = [n for n, line in enumerate(lines, first) if line not in ("", "\n", "\r\n", "\r")]
    body = [lines[n - first] for n in numbers]
    try:
        return parse(body) if body else None
    except ValueError as exc:
        def refusal(k):  # parse's refusal of body[:k + 1], if any
            try:
                parse(body[:k + 1])
            except ValueError as refused:
                return refused

        k = bisect.bisect_left(range(len(body) - 1), True, key=lambda k: refusal(k) is not None)
        raise DataError(f"{where}: line {numbers[k]}: {refusal(k)}") from exc


def _parse_rows(lines, labels, compounding: str, last):
    # a panel's rows, each an int64 time index beyond the one before (`last`'s, none before
    # the first row), then len(labels) finite returns, > -100% when geometric: (returns,
    # times), returns C-ordered, log-gross when geometric, times led by `last`
    try:
        table = _loadtxt(lines, [("time", np.int64), ("returns", np.float64, (len(labels),))], 1)
    except ValueError as exc:
        raise ValueError(f"bad time index or return value ({exc})") from None
    returns = np.array(table["returns"])
    bad = ~np.isfinite(returns)
    if compounding == "geometric":
        bad |= returns <= -1.0
    if bad.any():
        row, j = divmod(int(bad.argmax()), len(labels))
        raise ValueError(f"asset {labels[j]!r}: " + (
            "non-finite return" if not math.isfinite(returns[row, j])
            else "return <= -100% cannot be compounded geometrically"))
    times = np.concatenate((last, table["time"]))
    backwards = times[1:] <= times[:-1]  # neighbours compared, never subtracted
    if backwards.any():
        k = int(backwards.argmax())
        raise ValueError(f"time index {times[k + 1]} does not exceed the previous one ({times[k]})")
    if compounding == "geometric":
        np.log1p(returns, out=returns)
    return returns, times


def _panel_batches(path, compounding: str):
    # a panel CSV's labels, then per batch (its _parse_rows returns, the bar
    # length so far).  A batch is the whole lines readlines(_READ_CHARS) gives,
    # about 1 MiB, broken only at LF, CRLF or CR, as open(newline="") breaks them.
    path = Path(path)
    number, last, stride, uniform = 2, np.empty(0, np.int64), 0, True
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            try:  # strict: a quote left open or followed by more than ',' is refused
                header = next(csv.reader([handle.readline()], strict=True), [])  # none if empty
            except csv.Error as exc:
                raise DataError(f"{path}: line 1: malformed header ({exc})") from exc
            if len(header) < 2 or header[0].strip().lower() != "time":
                raise DataError(f"{path}: line 1: header must be 'time,<label>,...'")
            labels = tuple(lbl.strip() for lbl in header[1:])
            _check_labels(labels, f"{path}: line 1: ")
            yield labels
            while lines := handle.readlines(_READ_CHARS):
                rows = _parsed(lambda body: _parse_rows(body, labels, compounding, last),
                               lines, number, path)
                number += len(lines)
                if rows:
                    returns, times = rows
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


def _parse_beta(lines) -> np.ndarray:
    # a beta file's row: finite floats, as many as on the first row
    beta = _loadtxt(lines, np.float64, 2)
    if not np.isfinite(beta).all():
        raise ValueError("beta entries must all be finite")
    return beta


def _read_beta_file(path, shape) -> np.ndarray:
    # `leadlag simulate --beta-file`'s loadings, refused at the first fault in file order
    # like a panel's rows; _read_text makes CR and CRLF into LF, where a panel's rows break
    beta = _parsed(_parse_beta, _read_text(path, "beta file ").split("\n"), 1,
                   f"beta file {path}")
    if beta is None:
        raise DataError(f"beta file {path}: no data")
    if beta.shape != shape:
        raise DataError(f"beta file {path}: shape {beta.shape}, not --assets x --factors {shape}")
    return beta


class _PanelSource:
    # a panel CSV as the engine's chunk source; a call yields its rows through one reused
    # (length, N) buffer, F-ordered as load_panel's panel (so its curves); `scale` is its bar length

    def __init__(self, path, compounding: str):
        self.batches = _panel_batches(path, compounding)
        self.labels, self.scale = next(self.batches), 1

    def __call__(self, length):
        buffer, filled = np.empty((length, len(self.labels))), 0
        for returns, self.scale in self.batches:
            while len(returns):
                take = min(length - filled, len(returns))
                buffer[filled:filled + take], returns = returns[:take], returns[take:]
                filled = (filled + take) % length
                if not filled:
                    yield buffer.T
        if filled:
            yield buffer[:filled].T


def load_panel(path) -> ReturnPanel:
    """Read a panel CSV: the batches of its streamed reader, each copied onto
    the end of one (rows, N) array grown in place, so the panel is held once."""
    batches = _panel_batches(path, "arithmetic")
    labels = next(batches)
    rows = np.empty((0, len(labels)))
    for returns, scale in batches:
        start = len(rows)
        rows.resize((start + len(returns), len(labels)), refcheck=False)  # a realloc
        rows[start:] = returns
    return ReturnPanel(rows.T, base_scale=scale, asset_labels=labels)


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
    if type(document.get("schema")) is not int or document["schema"] != SCHEMA_VERSION:
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
