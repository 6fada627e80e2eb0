#!/usr/bin/env python3
"""Unit test of tools/perf_ab.py's gate on canned run.py result lines.

    python3 tests/build/perf_ab_test.py

Builds nothing and runs no benchmark: each case feeds `perf_ab.compare` or
`perf_ab.check_claim` hand-written result lines per side, with the bounds of
the repository's BENCHMARK.json, or parses a command line.
"""

import contextlib
import io
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


    def row(self, rows, metric):
        return next(r for r in rows if r[1] == metric)

    def test_better_in_counts_pairs_where_head_wins(self):
        base = runs()
        head = runs(run_s=1.5)
        head[2]["metrics"]["run_s"]["value"] = 5.0  # one pair goes the other way
        rows, failures = perf_ab.compare(SPEC, "w", base, head)
        self.assertEqual(failures, [])
        self.assertEqual(self.row(rows, "run_s")[7], "4/5")
        # Equal values are not "better"; for a higher-is-better metric a
        # larger HEAD value is.
        self.assertEqual(self.row(rows, "tasks_completed")[7], "0/5")
        rows, _ = perf_ab.compare(SPEC, "w", runs(), runs(tasks=21000))
        self.assertEqual(self.row(rows, "tasks_completed")[7], "5/5")
        self.assertEqual(self.row(rows, "failed share")[7], "-")

    def test_a_single_pair_still_compares(self):
        rows, failures = perf_ab.compare(SPEC, "w", runs()[:1], runs(run_s=1.0)[:1])
        self.assertEqual(failures, [])
        self.assertEqual(self.row(rows, "run_s")[7], "1/1")


def spread_runs(values, metric="run_s"):
    """One run per value of `metric`, the other metrics at their defaults."""
    out = []
    for v in values:
        line = result()
        line["metrics"][metric]["value"] = v
        out.append(line)
    return out


class PerfAbClaim(unittest.TestCase):
    BASE = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02, 1.98, 2.08, 1.92, 2.0]

    def holds(self, base, head, metric="run_s"):
        return perf_ab.check_claim(SPEC, "w", metric, base, head)[1]

    def test_better_in_every_pair_beyond_the_spread_holds(self):
        head = spread_runs([v * 0.7 for v in self.BASE])
        message, holds = perf_ab.check_claim(SPEC, "w", "run_s", spread_runs(self.BASE), head)
        self.assertTrue(holds, message)
        self.assertIn("better in 10/10", message)

    def test_nine_of_ten_pairs_is_enough(self):
        head = [v * 0.7 for v in self.BASE]
        head[4] = 5.0
        self.assertTrue(self.holds(spread_runs(self.BASE), spread_runs(head)))

    def test_eight_of_ten_pairs_is_not(self):
        head = [v * 0.7 for v in self.BASE]
        head[4] = head[7] = 5.0
        self.assertFalse(self.holds(spread_runs(self.BASE), spread_runs(head)))

    def test_a_gap_inside_the_base_spread_does_not_hold(self):
        # Better in every pair, but by less than the base's q1-q3 spread.
        head = [v - 0.01 for v in self.BASE]
        message, holds = perf_ab.check_claim(SPEC, "w", "run_s", spread_runs(self.BASE),
                                             spread_runs(head))
        self.assertFalse(holds, message)
        self.assertIn("DOES NOT HOLD", message)

    def test_a_higher_is_better_metric_claims_an_increase(self):
        base = spread_runs([20000 + 10 * i for i in range(10)], "tasks_completed")
        more = spread_runs([30000 + 10 * i for i in range(10)], "tasks_completed")
        self.assertTrue(self.holds(base, more, "tasks_completed"))
        self.assertFalse(self.holds(more, base, "tasks_completed"))

    def test_a_regression_never_holds(self):
        head = spread_runs([v * 1.5 for v in self.BASE])
        self.assertFalse(self.holds(spread_runs(self.BASE), head))


class PerfAbCommandLine(unittest.TestCase):
    def test_defaults_match_the_ci_job(self):
        args = perf_ab.parse_args(["base", "head"])
        self.assertEqual((args.base_dir, args.head_dir), ("base", "head"))
        self.assertEqual(args.workload, [])
        self.assertEqual(args.pairs, 5)
        self.assertEqual(args.seed, 1)
        self.assertEqual(args.claim, [])

    def test_workloads_repeat_and_pairs_and_seed_override(self):
        args = perf_ab.parse_args(["--workload", "open-stream-1m", "--workload", "scale-100k",
                                   "--pairs", "10", "--seed", "977", "b", "h"])
        self.assertEqual(args.workload, ["open-stream-1m", "scale-100k"])
        self.assertEqual(args.pairs, 10)
        self.assertEqual(args.seed, 977)

    def test_claims_repeat_and_split_at_the_last_colon(self):
        args = perf_ab.parse_args(["--claim", "scale-100k:run_s", "--claim",
                                   "open-stream-1m:peak_rss_mb", "b", "h"])
        self.assertEqual(args.claim, [("scale-100k", "run_s"), ("open-stream-1m", "peak_rss_mb")])

    def test_a_claim_without_a_metric_is_rejected(self):
        for bad in ("scale-100k", "scale-100k:", ":run_s"):
            with self.assertRaises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                perf_ab.parse_args(["--claim", bad, "b", "h"])


if __name__ == "__main__":
    unittest.main()
