#!/usr/bin/env python3
"""Unit test of tools/perf_ab.py's gate on canned run.py result lines.

    python3 tests/build/perf_ab_test.py

Builds nothing and runs no benchmark: each case feeds `perf_ab.compare` five
hand-written result lines per side, with the bounds of the repository's
BENCHMARK.json.
"""

import json
import os
import sys
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
sys.path.insert(0, os.path.join(ROOT, "tools"))

import perf_ab  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def result(run_s=2.0, setup_s=0.01, rss=100.0, tasks=20000):
    """One correct run.py result line with 0 of 5 replications failed."""
    return {"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "setup_s": {"unit": "s", "value": setup_s},
        "run_s": {"unit": "s", "value": run_s},
        "peak_rss_mb": {"unit": "MB", "value": rss},
        "tasks_completed": {"unit": "count", "value": tasks},
    }}


def runs(**overrides):
    """Five runs that spread around the given values by +-2%."""
    out = []
    for k in (0.98, 0.99, 1.0, 1.01, 1.02):
        line = result(**overrides)
        for m in ("setup_s", "run_s", "peak_rss_mb"):
            line["metrics"][m]["value"] *= k
        out.append(line)
    return out


class PerfAbGate(unittest.TestCase):
    def failures(self, base, head):
        return perf_ab.compare(SPEC, "w", base, head)[1]

    def test_change_within_every_bound_passes(self):
        head = runs(run_s=2.4, setup_s=0.012, rss=110.0, tasks=17000)
        self.assertEqual(self.failures(runs(), head), [])

    def test_run_s_median_beyond_its_bound_fails(self):
        failures = self.failures(runs(), runs(run_s=2.6))
        self.assertEqual(len(failures), 1)
        self.assertIn("run_s", failures[0])

    def test_a_run_that_is_not_correct_fails(self):
        head = runs()
        head[3]["correct"] = False
        failures = self.failures(runs(), head)
        self.assertEqual(len(failures), 1)
        self.assertIn("not correct", failures[0])

    def test_a_higher_failed_share_fails(self):
        head = runs()
        head[0]["failed"] = 1
        failures = self.failures(runs(), head)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_fewer_tasks_beyond_the_bound_fails(self):
        failures = self.failures(runs(), runs(tasks=15000))
        self.assertEqual(len(failures), 1)
        self.assertIn("tasks_completed", failures[0])


if __name__ == "__main__":
    unittest.main()
