"""The leadlag benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md in this directory) repeatedly, each
iteration in a fresh interpreter, until the next iteration would end after
S seconds, and never fewer than MIN_ITERATIONS iterations.  The seed fixes the
workload's inputs; every iteration of a run uses the same inputs, so the
first iteration's outputs are checked against the independent references and
every later one must reproduce them byte for byte.

With --trace 0 no tracing wrapper is installed and the result carries the
end-to-end metrics, medians over the iterations.  With --trace 1 the run
alternates untraced and traced iterations and the result carries the
per-layer metrics, taken from outside by wrapping the leadlag functions
where `leadlag.pipeline`, `leadlag.cli` and the workloads call them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `failed / attempted` is the
run's fail ratio over checked operations.  The lines above it give the
environment, each iteration, and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "leadlag"

WORKLOADS = ("long-panel", "reproduce-wide", "cli-csv", "exact-spectra")
MIN_ITERATIONS = 3
LAST_END_S = 170.0       # no iteration is started that would end later than this

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

LAYERS = ("model", "moments", "spectral", "fitting", "panel_io", "svgplot", "pipeline", "cli")
# traced functions whose summed time and call count are reported
TIMED = ("model.simulate_panel", "moments.aggregate_returns", "moments.sample_correlation",
         "spectral.dense_eigenvalues", "spectral.secular_eigenvalues",
         "spectral.factor_eigenvalues", "fitting.fit_eigencurve",
         "panel_io.save_panel", "panel_io.load_panel", "panel_io.json", "panel_io.write_text",
         "svgplot.render_eigencurve")
RSS = ("model.simulate_panel", "moments.aggregate_returns", "moments.sample_correlation",
       "panel_io.load_panel")
LATENCY = {"spectral.secular_eigenvalues": False, "spectral.factor_eigenvalues": True,
           "fitting.fit_eigencurve": True}   # function -> tail reported as well
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_BEYOND = 10          # samples that must lie beyond a reported tail percentile

PER_LAYER = {}
for _fn in TIMED:
    PER_LAYER[f"{_fn}.s"] = "s"
    PER_LAYER[f"{_fn}.n"] = "count"
for _fn in RSS:
    PER_LAYER[f"{_fn}.rss_mb"] = "MiB"
for _fn, _tail in LATENCY.items():
    PER_LAYER[f"{_fn}.p50_ms"] = "ms"
    if _tail:
        PER_LAYER[f"{_fn}.ptail_ms"] = "ms"
        PER_LAYER[f"{_fn}.ptail_pct"] = "%"
PER_LAYER.update({
    "model.simulate_panel.Mcells": "Mcell",
    "model.simulate_panel.Mcells_per_s": "Mcell/s",
    "moments.aggregate_returns.GB": "GB",
    "moments.aggregate_returns.GBps": "GB/s",
    "moments.sample_correlation.GFLOP": "GFLOP",
    "moments.sample_correlation.GFLOPs": "GFLOP/s",
    "spectral.secular_eigenvalues.max_err": "abs",
    "spectral.factor_eigenvalues.max_err": "abs",
    "spectral.factor_eigenvalues.roots_ratio": "ratio",
    "fitting.fit_eigencurve.iterations_mean": "count",
    "fitting.fit_eigencurve.converged_ratio": "ratio",
    "panel_io.save_panel.MBps": "MB/s",
    "panel_io.load_panel.MBps": "MB/s",
    "panel_io.csv_mb": "MB",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.identical": "ratio",
    "checks.fail_ratio": "ratio",
})
# metrics computed from array shapes and file sizes, not hardware counters
COMPUTED = ("model.simulate_panel.Mcells", "model.simulate_panel.Mcells_per_s",
            "moments.aggregate_returns.GB", "moments.aggregate_returns.GBps",
            "moments.sample_correlation.GFLOP", "moments.sample_correlation.GFLOPs",
            "panel_io.save_panel.MBps", "panel_io.load_panel.MBps", "panel_io.csv_mb")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_child(workload: str, seed: int, traced: bool, check: bool, workdir: Path,
               remaining: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    workdir.mkdir(parents=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             str(int(traced)), str(int(check)), str(workdir), repr(started)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"iteration did not finish within {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"iteration exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        print(proc.stderr.rstrip(), file=sys.stderr)
    return json.loads(lines[-1])


def _iterate(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    base = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    records, longest = [], 0.0
    run_start = time.monotonic()
    try:
        while True:
            traced = trace and len(records) % 2 == 1
            begun = time.monotonic()
            records.append(_run_child(workload, seed, traced, not records,
                                      base / f"iteration-{len(records)}",
                                      LAST_END_S - (begun - run_start)))
            longest = max(longest, time.monotonic() - begun)
            next_end = time.monotonic() - run_start + longest
            if next_end > LAST_END_S or (len(records) >= MIN_ITERATIONS and next_end > seconds):
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.is_dir() and not any(base.parent.iterdir()):
            base.parent.rmdir()
    return records


def _check_wrappers(records: list[dict]) -> None:
    for record in records:
        if record["traced"] != (record["wrapped"] > 0):
            state = "traced" if record["traced"] else "untraced"
            raise HarnessError(f"{state} iteration ran with {record['wrapped']} wrappers")


def _percentile(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _iteration_layers(record: dict) -> dict:
    calls = record["trace"]["calls"]
    wall = record["wall_s"]

    def total(fn, column=0):
        return sum(call[column] for call in calls.get(fn, []))

    def count(fn, key):
        return sum(call[3].get(key, 0) for call in calls.get(fn, []))

    out = {}
    for fn in TIMED:
        out[f"{fn}.s"] = total(fn)
        out[f"{fn}.n"] = len(calls.get(fn, []))
    for fn in RSS:
        out[f"{fn}.rss_mb"] = total(fn, 2)
    out["model.simulate_panel.Mcells"] = count("model.simulate_panel", "cells") / 1e6
    out["model.simulate_panel.Mcells_per_s"] = _ratio(out["model.simulate_panel.Mcells"],
                                                      out["model.simulate_panel.s"])
    out["moments.aggregate_returns.GB"] = count("moments.aggregate_returns", "bytes") / 1e9
    out["moments.aggregate_returns.GBps"] = _ratio(out["moments.aggregate_returns.GB"],
                                                   out["moments.aggregate_returns.s"])
    out["moments.sample_correlation.GFLOP"] = count("moments.sample_correlation", "flops") / 1e9
    out["moments.sample_correlation.GFLOPs"] = _ratio(out["moments.sample_correlation.GFLOP"],
                                                      out["moments.sample_correlation.s"])
    fits = calls.get("fitting.fit_eigencurve", [])
    out["fitting.fit_eigencurve.iterations_mean"] = _ratio(
        count("fitting.fit_eigencurve", "iterations"), len(fits))
    out["fitting.fit_eigencurve.converged_ratio"] = _ratio(
        count("fitting.fit_eigencurve", "converged"), len(fits))
    for fn in ("panel_io.save_panel", "panel_io.load_panel"):
        out[f"{fn}.MBps"] = _ratio(count(fn, "bytes") / 1e6, out[f"{fn}.s"])
    out["panel_io.csv_mb"] = max([call[3].get("bytes", 0) / 1e6
                                  for fn in ("panel_io.save_panel", "panel_io.load_panel")
                                  for call in calls.get(fn, [])], default=0.0)
    self_time = {layer: sum(call[1] for fn, fn_calls in calls.items()
                            if fn.split(".")[0] == layer for call in fn_calls)
                 for layer in LAYERS}
    out["pipeline.self_s"] = self_time["pipeline"]
    out["cli.self_s"] = self_time["cli"]
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(self_time[layer], wall)
    out["process.cpu_s"] = record["cpu_s"]
    out["process.cpu_util"] = _ratio(record["cpu_s"], wall)
    out["trace.coverage"] = _ratio(record["trace"]["outer_s"], wall)
    return out


def _per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_iteration = [_iteration_layers(r) for r in traced]
    out = {name: statistics.median(it[name] for it in per_iteration)
           for name in per_iteration[0]}
    for fn, tail in LATENCY.items():
        samples = [call[0] * 1e3 for r in traced for call in r["trace"]["calls"].get(fn, [])]
        out[f"{fn}.p50_ms"] = statistics.median(samples) if samples else 0.0
        if tail:
            # the highest listed percentile with TAIL_BEYOND samples above it; 0 if none
            pct = next((p for p in TAIL_PERCENTILES
                        if len(samples) * (1.0 - p / 100.0) >= TAIL_BEYOND), 0.0)
            out[f"{fn}.ptail_pct"] = pct
            out[f"{fn}.ptail_ms"] = _percentile(samples, pct) if pct else 0.0
    # the solver diagnostics come from the checks, which the first iteration runs
    for name in ("spectral.secular_eigenvalues.max_err", "spectral.factor_eigenvalues.max_err",
                 "spectral.factor_eigenvalues.roots_ratio"):
        out[name] = records[0]["diagnostics"].get(name, 0.0)
    out["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                             / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return out


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _memory_total_mb() -> float:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    records = _iterate(workload, seed, seconds, trace)
    _check_wrappers(records)

    env = {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
           "memory_total_mb": _memory_total_mb(), **records[0]["env"], **_source_record()}
    print("env " + json.dumps(env, sort_keys=True))
    for k, r in enumerate(records):
        state = "traced" if r["traced"] else "untraced"
        passed = r["attempted"] - len(r["unexpected"]) - len(r["known"])
        print(f"iteration {k} ({state}): wall_s {r['wall_s']:.4f} s, setup_s {r['setup_s']:.4f} s, "
              f"peak_rss_mb {r['peak_rss_mb']:.1f} MiB, {passed}/{r['attempted']} checked "
              f"operations passed, digest {str(r['digest'])[:12]}")
        for name in r["unexpected"]:
            print(f"  FAILED: {name}")
        for name in r["known"]:
            print(f"  failed (known defect): {name}")

    # every iteration ran the same inputs, traced or not: artifacts must agree,
    # which carries the first iteration's checks over to the others
    identical = len({r["digest"] for r in records}) == 1 and records[0]["digest"] is not None
    attempted = sum(r["attempted"] for r in records) + 1
    failed = sum(len(r["unexpected"]) + len(r["known"]) for r in records) + (not identical)
    correct = identical and not any(r["unexpected"] for r in records)

    if trace:
        values = _per_layer(records)
        values["trace.identical"] = float(identical)
        values["checks.fail_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        untraced = [r for r in records if not r["traced"]]
        values = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END}
        units = END_TO_END
    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {values[name]!r} {unit}{label}")
    print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} checked operations failed)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"benchmark: no leadlag source at {SOURCE}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("benchmark: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
