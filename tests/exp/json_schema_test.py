#!/usr/bin/env python3
"""Checks the key set of `scenario_runner --run=NAME --small --json`.

    python3 tests/exp/json_schema_test.py path/to/scenario_runner

Each run prints a one-element JSON array. Its object must carry exactly KEYS,
in that order: the digested headline metrics, then the counters that explain
a run (not digested), then the curves. A counter added to ExperimentResult
without reaching the JSON, or a key dropped, fails here. The scenarios cover
every counter source: idealized gossip on the bottleneck network, link
waves, message-level gossip on a lossy network, and the quantised-fair
network.
"""

import json
import subprocess
import sys
import unittest

KEYS = [
    "algorithm", "nodes", "workflows_per_node", "seed", "workflows_submitted",
    "workflows_finished", "act_s", "ae", "mean_response_s", "converged_rss_size",
    "tasks_dispatched", "tasks_failed", "tasks_rescheduled", "tasks_reoffered",
    "schedule_points_offered", "gossip_messages", "gossip_bytes", "gossip_floor_rejections",
    "solver_resumed", "solver_full", "probe_cache_hits", "probe_cache_misses", "link_aborts",
    "events_processed", "live_reports", "ct_p50_s", "ct_p95_s", "ct_p99_s", "ready_depth_max",
    "pending_max",
    "fault_messages_lost", "fault_messages_duplicated", "fault_messages_delayed",
    "fault_link_failures", "fault_link_recoveries", "fault_node_crashes", "fault_node_restarts",
    "detector_suspicions", "detector_refutations", "detector_declared_dead",
    "gossip_messages_suppressed", "churn_steps", "churn_leaves", "churn_joins",
    "quantised_barriers", "routing_repaired_rows",
    "wall_seconds", "throughput", "act_over_time", "ae_over_time",
]

# Scenario -> the exported counters its run must drive above 0.
SCENARIOS = {
    "paper/static-n200": [],
    "realism/link-waves": ["fault_link_failures", "fault_link_recoveries",
                           "routing_repaired_rows"],
    "realism/lossy-gossip": ["fault_messages_lost", "fault_messages_duplicated",
                             "fault_messages_delayed", "detector_suspicions",
                             "detector_refutations", "gossip_messages_suppressed"],
    "quantised/fair-epoch60": ["quantised_barriers"],
}

RUNNER = None


def run(scenario):
    out = subprocess.run([RUNNER, "--run=" + scenario, "--small", "--json"], check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
    results = json.loads(out)
    if len(results) != 1:
        raise AssertionError("%s: expected one result, got %d" % (scenario, len(results)))
    return results[0]


class JsonSchemaTest(unittest.TestCase):
    def test_every_run_has_exactly_the_keys(self):
        for scenario, positive in SCENARIOS.items():
            with self.subTest(scenario=scenario):
                result = run(scenario)
                self.assertEqual(list(result), KEYS)
                for key in KEYS[KEYS.index("fault_messages_lost"):KEYS.index("wall_seconds")]:
                    self.assertIsInstance(result[key], int, key)
                    self.assertGreaterEqual(result[key], 0, key)
                for key in positive:
                    self.assertGreater(result[key], 0, key)


if __name__ == "__main__":
    RUNNER = sys.argv.pop(1)
    unittest.main()
