"""One iteration of one workload, in a fresh interpreter.

    python3 child.py WORKLOAD SEED TRACE CHECK WORKDIR STARTED

TRACE and CHECK are 0 or 1: install the tracing wrappers, and check the
outputs against the independent references.  STARTED is the parent's
`time.monotonic()` taken just before it started this interpreter, so
`setup_s` runs from interpreter start to the workload's first call into
leadlag.  The last line of standard output is the iteration's
record as JSON; the workload itself may print above it (the CLI does).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv) -> int:
    name, seed, trace, check, workdir, started = argv
    seed, trace, check, started = int(seed), trace == "1", check == "1", float(started)
    workdir = Path(workdir)

    import leadlag  # noqa: F401  (the import is most of set-up)
    import tracing
    import workloads

    source = Path(leadlag.__file__).resolve().parent
    expected = Path(__file__).resolve().parent.parent / "src" / "leadlag"
    if source != expected:
        print(f"leadlag imported from {source}, expected {expected}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed, workdir)
    tracer = tracing.Tracer(workloads) if trace else None
    if tracer:
        tracer.install()
    wrapped = tracing.count_wrapped(workloads)

    cpu0 = _cpu_seconds()
    start = time.monotonic()
    error = None
    try:
        outputs = workload.run(inputs)
    except Exception:  # a raising workload is a failed operation, not a harness crash
        error = traceback.format_exc()
    wall = time.monotonic() - start
    cpu = _cpu_seconds() - cpu0
    peak = tracing.maxrss_mb()
    if tracer:
        tracer.uninstall()

    checks, digest = workloads.Checks(), None
    if error is None:
        try:
            if check:
                checks = workload.check(inputs, outputs)
            digest = workload.digest(inputs, outputs)
        except Exception:  # outputs too malformed to check are failed outputs
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        checks.record("workload ran and its outputs could be checked", False)

    print(json.dumps({
        "traced": trace,
        "wrapped": wrapped,
        "setup_s": start - started,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "cpu_s": cpu,
        "attempted": checks.attempted,
        "unexpected": checks.unexpected,
        "known": checks.known,
        "diagnostics": checks.diagnostics,
        "digest": digest,
        "trace": tracer.record() if tracer else None,
        "env": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
