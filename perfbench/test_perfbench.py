"""Tests of the benchmark itself (not of the library it measures).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark once through run.py, then checks that the input
generator is deterministic per seed, that every workload emits exactly the
metric names and units BENCHMARK.json declares, and that a run whose thread
budget exceeds its CPUs refuses to start. Takes about a minute.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]


def setUpModule():
    run.build()


def perfbench(*args, prefix=()):
    return subprocess.run([*prefix, str(run.BINARY), *args], capture_output=True,
                          text=True, timeout=170)


def dump(workload, seed):
    p = perfbench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", "0", "--dump-inputs")
    if p.returncode != 0:
        raise AssertionError(p.stderr)
    return p.stdout


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = dump(w, 7)
                self.assertGreater(len(first.splitlines()), 2)
                self.assertEqual(first, dump(w, 7))

    def test_other_seed_gives_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(dump(w, 7), dump(w, 8))


class MetricNamesTest(unittest.TestCase):
    def test_every_workload_emits_the_declared_metrics(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    p = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", w,
                         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=300)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    line = p.stdout.strip().splitlines()[-1]
                    self.assertIsNone(run.result_error(line, trace))
                    result = json.loads(line)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_a_missing_metric_is_refused(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        self.assertIn("missing", run.result_error(json.dumps(result), 0))


class ThreadBudgetTest(unittest.TestCase):
    def test_budget_above_the_cpus_refuses_to_start(self):
        if shutil.which("taskset") is None:
            self.skipTest("taskset is not installed")
        refused = 0
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = perfbench("--workload", w, "--seed", "1", "--seconds", "0.2",
                              "--trace", "0", prefix=("taskset", "-c", "0"))
                budget = re.search(r"thread budget .* = (\d+) of 1 CPUs", p.stderr)
                self.assertIsNotNone(budget, p.stderr)
                if int(budget.group(1)) > 1:
                    refused += 1
                    self.assertNotEqual(p.returncode, 0)
                    self.assertEqual(p.stdout, "")
                else:
                    self.assertEqual(p.returncode, 0, p.stderr)
        self.assertGreater(refused, 0)


if __name__ == "__main__":
    unittest.main()
