#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and declarations.

    python3 perfbench/test_perfbench.py

Builds the driver and perfbench_selftest (see run.py), then checks:
  - the C++ self-test: calibrated-time scaling, quantiles, the rule that a
    tail percentile has >= 10 samples beyond it, and block-wise evaluation
    equal to one whole-split EvaluateRanking call bit for bit;
  - every metric BENCHMARK.json declares is one the driver prints, with the
    same unit, and no other;
  - the result-line checks of run.py and the spread arithmetic of
    steadiness.py.
"""
import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import steadiness  # noqa: E402

BDIR = None


def setUpModule():
    global BDIR
    BDIR = run.build(("perfbench_driver", "perfbench_selftest"))


class SelfTest(unittest.TestCase):
    def test_cpp_selftest_passes(self):
        proc = subprocess.run([os.path.join(BDIR, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 failure(s)", proc.stdout)


class DeclaredMetrics(unittest.TestCase):
    def listed(self):
        out = subprocess.run([os.path.join(BDIR, "perfbench_driver"),
                              "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        lists = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            lists[kind].append((name, unit))
        return lists

    def test_driver_prints_every_declared_metric_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        lists = self.listed()
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in spec[kind]]
            self.assertEqual(sorted(declared), sorted(lists[kind]), kind)

    def test_setup_metric_is_declared_as_required(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class ResultChecks(unittest.TestCase):
    def line(self, metrics, **kw):
        d = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        d.update(kw)
        return json.dumps(d)

    def full(self):
        return {n: {"value": 1.0, "unit": u}
                for n, u in run.declared_metrics(False).items()}

    def test_accepts_the_declared_set(self):
        run.check_result(self.line(self.full()), False)

    def test_rejects_a_missing_metric(self):
        m = self.full()
        m.pop("setup_s")
        with self.assertRaises(ValueError):
            run.check_result(self.line(m), False)

    def test_rejects_a_wrong_unit(self):
        m = self.full()
        m["setup_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.check_result(self.line(m), False)

    def test_rejects_zero_attempts(self):
        with self.assertRaises(ValueError):
            run.check_result(self.line(self.full(), attempted=0), False)


class SpreadArithmetic(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        v = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 9.9, 11.3]
        q1, med, q3 = statistics.quantiles(v, n=4)
        m, iqr = steadiness.spread(v)
        self.assertEqual(m, statistics.median(v))
        self.assertAlmostEqual(iqr, (q3 - q1) / statistics.median(v))

    def test_half_shift(self):
        self.assertAlmostEqual(steadiness.half_shift([1, 1, 2, 2]), 1.0)
        self.assertEqual(steadiness.half_shift([5.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
