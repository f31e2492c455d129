"""Self-test of the benchmark: python3 perfbench/test_selftest.py

Runs every workload at tiny scale, checks that each metric BENCHMARK.json
names is printed with its unit, and that a deliberately broken derivative
makes the checks fail.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from reference import display_value  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.2  # seconds; a run still completes run.MIN_OPS ops on whole input cycles


def doubled_derivative(a, n):
    """d_n scaled by 2: wrong wherever the derivative is nonzero.  Resolved
    through sys.modules at call time because each run re-imports the engine."""
    engine = sys.modules
    return engine["rigdiff.carrier"].tensor_scale(engine["rigdiff.derive"].d_n(a, n), 2)


class MetricsPrinted(unittest.TestCase):
    def check_printed(self, workload, trace, group):
        lines, result = run.run(workload, 1, TINY, trace)
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(
                any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
                f"{name} not printed with unit {unit}")
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_printed(workload["name"], False, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_printed(workload["name"], True, "per_layer")


class BrokenDerivative(unittest.TestCase):
    def test_is_caught(self):
        for workload in ("law_suite", "op_derive"):
            with self.subTest(workload=workload):
                lines, result = run.run(workload, 1, TINY, False,
                                        derive_fn=doubled_derivative)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)
                ratio = next(line for line in lines if line.startswith("failed_ratio "))
                self.assertGreater(float(ratio.split()[1]), 0)


class Reference(unittest.TestCase):
    def test_display_value_reads_values_and_tensors(self):
        phi, w = {0: 2, 1: 3}, {0: 5, 1: 7}

        def square(v):
            return v * v

        # 3*x0*f(x1 + 1) + 4 at (2, 3): f(4) = 16, so 3*2*16 + 4
        self.assertEqual(display_value("3*x[0]*f(x[1] + 1) + 4", phi, w, square), 100)
        # f(f(2)) = 16, so 2*(2*16*7) + 1*5
        self.assertEqual(
            display_value("2*(x[0]*f(f(x[0])) ⊗ e[1]) + 1 ⊗ e[0]", phi, w, square), 453)
        with self.assertRaises(ValueError):
            display_value("x[0] - 1", phi, w, square)


class Contract(unittest.TestCase):
    def test_fails_without_the_engine(self):
        """With only BENCHMARK.json and the benchmark's own files present, the
        benchmark exits nonzero and prints no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "law_suite", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
