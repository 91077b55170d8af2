"""Outside-in per-layer tracing for the benchmark.

The layers are measured only from outside: a traced run replaces the names
that `leadlag.pipeline`, `leadlag.cli` and the benchmark's own workloads
module look up at call time (e.g. `pipeline.aggregate_returns`,
`cli.load_panel`) with timing wrappers, and puts the originals back
afterwards.  Nothing inside the package changes, and an untraced run installs
no wrapper at all.

Each wrapped call records its wall time, its time net of wrapped calls made
inside it (self time), the rise of the process's `ru_maxrss` across it, and a
few counts computed from argument and result shapes (cells simulated, bytes
aggregated, gemm flops, file bytes, fit iterations).  Those counts are
derived from array sizes, not read from hardware counters.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections import defaultdict

_MARK = "__bench_traced__"


def maxrss_mb() -> float:
    """High-water mark of this process's resident set, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cells(args, kwargs, result):
    return {"cells": result.returns.size}


def _bytes_aggregated(args, kwargs, result):
    panel = args[0]
    tau = int(args[1] if len(args) > 1 else kwargs["tau"])
    n, t = panel.returns.shape
    # tau == 1 returns the input panel untouched: nothing is read
    return {"bytes": 0 if tau == 1 else n * (t // tau) * tau * panel.returns.itemsize}


def _gemm_flops(args, kwargs, result):
    n, t = args[0].returns.shape
    return {"flops": 2 * n * n * t}


def _file_bytes(position):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return count


def _fit(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


# counts taken from each wrapped function's arguments or result
_COUNTERS = {
    "model.simulate_panel": _cells,
    "moments.aggregate_returns": _bytes_aggregated,
    "moments.sample_correlation": _gemm_flops,
    "panel_io.save_panel": _file_bytes(1),
    "panel_io.load_panel": _file_bytes(0),
    "fitting.fit_eigencurve": _fit,
}

# name looked up at call time -> traced name, per namespace
PIPELINE_NAMES = {
    "simulate_panel": "model.simulate_panel",
    "aggregate_returns": "moments.aggregate_returns",
    "sample_correlation": "moments.sample_correlation",
    "dense_eigenvalues": "spectral.dense_eigenvalues",
    "fit_eigencurve": "fitting.fit_eigencurve",
    "save_curves": "panel_io.json",
    "save_fits": "panel_io.json",
    "_dump": "panel_io.json",
    "_atomic_write_text": "panel_io.write_text",
    "render_eigencurve": "svgplot.render_eigencurve",
    "eigencurves_from_panel": "pipeline.eigencurves_from_panel",
    "fit_curves": "pipeline.fit_curves",
    "reproduce_report": "pipeline.reproduce_report",
}
CLI_NAMES = {
    "simulate_panel": "model.simulate_panel",
    "load_panel": "panel_io.load_panel",
    "save_panel": "panel_io.save_panel",
    "load_curves": "panel_io.json",
    "load_fits": "panel_io.json",
    "save_curves": "panel_io.json",
    "save_fits": "panel_io.json",
    "_atomic_write_text": "panel_io.write_text",
    "render_eigencurve": "svgplot.render_eigencurve",
}
WORKLOAD_NAMES = {
    "simulate_panel": "model.simulate_panel",
    "eigencurves_from_panel": "pipeline.eigencurves_from_panel",
    "fit_curves": "pipeline.fit_curves",
    "reproduce_report": "pipeline.reproduce_report",
    "main": "cli.main",
    "secular_eigenvalues": "spectral.secular_eigenvalues",
    "factor_eigenvalues": "spectral.factor_eigenvalues",
    "fit_eigencurve": "fitting.fit_eigencurve",
}


def targets(workloads_module):
    """(namespace, attribute, traced name) for every name the tracer wraps."""
    from leadlag import cli, pipeline

    return [(namespace, attr, name)
            for namespace, names in ((pipeline, PIPELINE_NAMES), (cli, CLI_NAMES),
                                     (workloads_module, WORKLOAD_NAMES))
            for attr, name in names.items()]


def count_wrapped(workloads_module) -> int:
    """Number of target names currently bound to a tracing wrapper."""
    return sum(bool(getattr(getattr(ns, attr), _MARK, False))
               for ns, attr, _ in targets(workloads_module))


class Tracer:
    """Wraps the target names and records, per wrapped call, its seconds, its
    self seconds, its `ru_maxrss` rise in MiB and its counts."""

    def __init__(self, workloads_module):
        self._targets = targets(workloads_module)
        self._saved = []
        self._open = []          # wrapped time of children, per open call
        self.calls = defaultdict(list)
        self.outer_seconds = 0.0  # time inside outermost wrapped calls

    def install(self) -> None:
        for namespace, attr, name in self._targets:
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            rss0 = maxrss_mb()
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                seconds = time.perf_counter() - start
                rss = maxrss_mb() - rss0
                children = self._open.pop()
                if self._open:
                    self._open[-1] += seconds
                else:
                    self.outer_seconds += seconds
                counts = counter(args, kwargs, result) if counter and ok else {}
                self.calls[name].append([seconds, seconds - children, rss, counts])

        setattr(wrapper, _MARK, True)
        return wrapper

    def record(self) -> dict:
        """Calls grouped by traced name, as plain data for the parent process."""
        return {"outer_s": self.outer_seconds, "calls": dict(self.calls)}
