"""Self-test of the benchmark.

    python3 benchmark/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit for
every workload, traced and untraced. It checks that corrupted outputs are
counted as failed operations, and that tracing wrappers are absent in
untraced runs and removed after traced ones. It also checks that the
benchmark refuses to run without the leadlag sources. The end-to-end part
runs each workload at its minimum length and takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from leadlag import FitResult  # noqa: E402
from leadlag.fitting import EigenCurve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class MetricNames(unittest.TestCase):
    def test_declared_metrics_match_the_emitted_ones(self):
        self.assertEqual(_units(SPEC["end_to_end"]), run.END_TO_END)
        self.assertEqual(_units(SPEC["per_layer"]), run.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))

    def test_every_workload_emits_every_metric(self):
        for name in run.WORKLOADS:
            for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     _units(declared))
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class CorruptedOutputs(unittest.TestCase):
    def test_long_panel_counts_a_perturbed_eigenvalue(self):
        exact = workloads._exact_long_curve()
        alpha, amplitude = workloads._reference_fit(workloads.DYADIC_TAUS, exact)
        fit = FitResult(alpha=alpha, amplitude=amplitude, gamma_f=amplitude / 100, t_alpha=1.0,
                        rss=0.0, iterations=5, converged=True)
        taus = np.asarray(workloads.DYADIC_TAUS)

        def failed(values):
            curves = [EigenCurve(taus, values)]
            return workloads.check_long(None, (curves, [(1, fit, None)])).failed

        self.assertEqual(failed(exact), 0)
        corrupted = exact.copy()
        corrupted[3] *= 1.05
        # that tau's eigenvalue, and the fit no longer matches the corrupted curve
        self.assertEqual(failed(corrupted), 2)

    def test_exact_spectra_counts_a_perturbed_eigenvalue(self):
        rng = np.random.default_rng(0)
        spec = workloads.ModelSpec(40, 1, 0.2, 1.0, 1.0, rng.uniform(0.1, 0.8, 40))
        matrix = workloads.loading_matrix(
            workloads.ModelSpec.orthogonal_factors(60, (0.3, 0.1), 0.2, seed=1), 4)
        curve = workloads.factor_eigencurve(workloads.REFERENCE_N_ASSETS, 0.1, 0.3,
                                            workloads.DYADIC_TAUS)
        inputs = workloads.ExactInputs([workloads.loading_vector(spec, 4)], [matrix], [],
                                       [(0.3, 0.1)], [curve])
        secular, factor, fits = workloads._run_exact(inputs)
        self.assertEqual(workloads.check_exact(inputs, (secular, factor, fits)).failed, 0)

        bad = secular[0].eigenvalues.copy()
        bad[0] += 1e-6
        corrupted = [dataclasses.replace(secular[0], eigenvalues=bad)]
        self.assertEqual(workloads.check_exact(inputs, (corrupted, factor, fits)).failed, 1)
        self.assertEqual(workloads.check_exact(inputs, (secular, [factor[0][:-1]], fits)).failed, 1)

    def test_known_defect_instances_still_fail_and_count(self):
        for perturbation in (0.0, 1e-7):
            matrix = workloads.tied_blocks(perturbation)
            inputs = workloads.ExactInputs([], [], [matrix], [], [])
            checks = workloads.check_exact(inputs, ([], [workloads.factor_eigenvalues(matrix)], []))
            self.assertEqual(checks.attempted, 1)
            # passes once ROADMAP item 3 lands; until then it is a counted failure
            self.assertEqual(checks.failed, len(checks.known))
            self.assertEqual(checks.unexpected, [])


class Wrappers(unittest.TestCase):
    def test_wrappers_are_installed_only_while_tracing(self):
        targets = tracing.targets(workloads)
        originals = [getattr(ns, attr) for ns, attr, _ in targets]
        self.assertEqual(tracing.count_wrapped(workloads), 0)
        tracer = tracing.Tracer(workloads)
        tracer.install()
        try:
            self.assertEqual(tracing.count_wrapped(workloads), len(targets))
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.count_wrapped(workloads), 0)
        self.assertTrue(all(getattr(ns, attr) is fn
                            for (ns, attr, _), fn in zip(targets, originals)))

    def test_untraced_iterations_with_wrappers_are_refused(self):
        record = {"traced": False, "wrapped": 3}
        with self.assertRaises(run.HarnessError):
            run._check_wrappers([record])


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = _bench("--workload", "long-panel", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            if not any((ROOT / ".bench_work").iterdir()):
                (ROOT / ".bench_work").rmdir()


if __name__ == "__main__":
    unittest.main(verbosity=2)
