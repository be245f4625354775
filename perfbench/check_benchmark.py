"""Tests of the benchmark itself (not collected by pytest; about 3 minutes).

    python3 perfbench/check_benchmark.py            # all tests
    python3 perfbench/check_benchmark.py -k verdict # one test by name

- a wrong verdict fed to a workload's checks makes the fail ratio positive;
- the reference-speed timeline leaves probe time out and scales the rest;
- two traced runs with the same seed report identical counts and ratios;
- a held-out seed gives the same correctness verdicts on every workload;
- without the program's source the benchmark fails without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speedprobe  # noqa: E402
import workloads  # noqa: E402
from ogrlab import acceptance, orthopositroids  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=200)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def one_rep(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    return result(proc)


class FailingChecks(unittest.TestCase):
    def test_wrong_verdict_raises_fail_ratio(self):
        golden = {workloads._dperm_key(d)
                  for d in workloads.GOLDEN["ortho-enum-3-7"]["orthopositroids"]}
        verdicts = [(p, workloads._dperm_key(p.dperm.to_json()) in golden)
                    for p in orthopositroids.enumerate_positroids(3, 7)]
        self.assertEqual(workloads.ortho_check({"verdicts": verdicts}).failed, 0)
        verdicts[0] = (verdicts[0][0], not verdicts[0][1])
        wrong = workloads.ortho_check({"verdicts": verdicts})
        self.assertEqual(wrong.failed, 1)
        self.assertGreater(wrong.failed / wrong.attempted, 0)

    def test_wrong_histogram_and_unresolved_cell_fail(self):
        histogram = dict(acceptance.EXPECTED_DIM_HISTOGRAM)
        good = workloads.cells_check({"total": 99, "resolved": 99, "histogram": histogram})
        self.assertEqual(good.failed, 0)
        histogram["0"] -= 1
        bad = workloads.cells_check({"total": 99, "resolved": 98, "histogram": histogram})
        self.assertEqual(bad.failed, 2)
        self.assertGreater(bad.failed / bad.attempted, 0)


class ReferenceSpeed(unittest.TestCase):
    def test_probe_time_left_out_and_slow_stretches_scaled(self):
        ms = 1_000_000
        for took, factor in ((speedprobe.NOMINAL_NS, 1.0), (2 * speedprobe.NOMINAL_NS, 0.5)):
            with self.subTest(factor=factor):
                # probes start at 0, 10 and 20 ms and each takes `took`
                timeline = speedprobe.Timeline([(t, t + took) for t in (0, 10 * ms, 20 * ms)])
                gap = 10 * ms - took
                self.assertAlmostEqual(timeline.span(0, 10 * ms), gap * factor)
                self.assertEqual(timeline.span(10 * ms, 10 * ms + took), 0)
                self.assertAlmostEqual(timeline.span(took, 20 * ms + took), 2 * gap * factor)
                self.assertAlmostEqual(timeline.span(-ms, 0), ms * factor)


class TraceDeterminism(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [result(bench("--workload", workload, "--seed", "5",
                                     "--seconds", "1", "--trace", "1"))
                        for _ in range(2)]
                first, second = ({name: r["metrics"][name]["value"] for name in exact}
                                 for r in runs)
                self.assertEqual(first, second)
                self.assertTrue(any(first.values()))


class HeldOutSeed(unittest.TestCase):
    def test_same_verdicts_on_a_second_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                reps = [one_rep(workload, seed) for seed in (1, 90001)]
                self.assertEqual([r["failed"] for r in reps], [0, 0])
                self.assertEqual(reps[0]["verdict"], reps[1]["verdict"])


class MissingSource(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
