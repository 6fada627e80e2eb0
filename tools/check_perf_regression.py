#!/usr/bin/env python3
"""Compares a fresh perf_harness JSON against the checked-in baseline.

Usage: check_perf_regression.py <current.json> <baseline.json>
                                [--tolerance=0.30] [--strict-digest]

The perf harness times the current sim::EventQueue against a frozen in-binary
copy of the pre-overhaul implementation, so the *speedup ratios* it reports
are measured on one machine inside one binary and are comparable across
hosts. This gate fails (exit 1) when a watched speedup falls more than
`tolerance` below the baseline's recorded ratio - i.e. someone made the hot
path slower relative to the fixed reference. Absolute Mops/s and events/s
are printed for information only (CI hardware varies too much to gate on).

The end-to-end result digest is compared against whichever recorded section
(`end_to_end` or `quick_end_to_end`) matches the current run's nodes+seed.
A mismatch means simulation output changed. That is a hard failure only
with --strict-digest (use it when comparing runs from the same machine and
toolchain); by default it prints a prominent warning, because the workload
generators call libm (std::log/std::exp) and different glibc versions may
legitimately produce different last-ulp results.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"PERF REGRESSION: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    tolerance = 0.30
    strict_digest = "--strict-digest" in sys.argv[1:]
    for a in sys.argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])

    with open(args[0]) as f:
        current = json.load(f)
    with open(args[1]) as f:
        baseline = json.load(f)

    # Quick runs use fewer micro-ops, which changes the achievable speedup
    # (the lazy-cancel baseline degrades with run length), so compare against
    # the recorded quick-run ratios when available.
    base_eq = "event_queue"
    if current.get("quick") and "quick_event_queue" in baseline:
        base_eq = "quick_event_queue"
    base_tr = "transfer"
    if current.get("quick") and "quick_transfer" in baseline:
        base_tr = "quick_transfer"
    base_nc = "next_completion"
    if current.get("quick") and "quick_next_completion" in baseline:
        base_nc = "quick_next_completion"
    base_se = "shard_engine"
    if current.get("quick") and "quick_shard_engine" in baseline:
        base_se = "quick_shard_engine"
    base_or = "oracle"
    if current.get("quick") and "quick_oracle" in baseline:
        base_or = "quick_oracle"
    base_sm = "streaming_metrics"
    if current.get("quick") and "quick_streaming_metrics" in baseline:
        base_sm = "quick_streaming_metrics"
    watched = [
        ("event_queue", base_eq, "schedule_pop_speedup"),
        ("event_queue", base_eq, "schedule_cancel_pop_speedup"),
        ("transfer", base_tr, "fair_sharing_speedup"),
        ("next_completion", base_nc, "arming_speedup"),
        ("shard_engine", base_se, "sharded_speedup"),
        ("oracle", base_or, "probe_cache_speedup"),
        # The streaming collector must stay free on the hot path: the
        # streaming/retaining dispatch-throughput ratio sits near 1.0 and a
        # drop means the sketches started taxing every report.
        ("streaming_metrics", base_sm, "tasks_per_s_ratio"),
    ]
    info = [
        ("event_queue", "current_schedule_pop_mops"),
        ("event_queue", "current_schedule_cancel_pop_mops"),
        ("transfer", "current_steady_completions_per_s"),
        ("transfer", "teardown_speedup"),
        ("next_completion", "index_completions_per_s"),
        ("end_to_end", "events_per_s"),
        ("routing", "build_ms"),
        ("shard_engine", "serial_events_per_s"),
        ("shard_engine", "sharded_s"),
        ("shard_engine", "parallel_windows"),
        ("oracle", "reference_probes_per_s"),
        ("oracle", "uncached_probes_per_s"),
        ("oracle", "cached_probes_per_s"),
        ("oracle", "probe_replay_speedup"),
        ("streaming_metrics", "streaming_tasks_per_s"),
        ("streaming_metrics", "retaining_tasks_per_s"),
        ("streaming_metrics", "live_reports_streaming"),
    ]
    for section, key in info:
        print(f"info: {section}.{key} = {current.get(section, {}).get(key)}")

    ok = True
    for cur_section, base_section, key in watched:
        base = baseline.get(base_section, {}).get(key)
        cur = current.get(cur_section, {}).get(key)
        if base is None or cur is None:
            print(f"note: {base_section}.{key} missing (baseline={base}, current={cur}); skipped")
            continue
        ratio = cur / base
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(
            f"{base_section}.{key}: recorded={base:.3f} current={cur:.3f} ratio={ratio:.2f} {status}"
        )
        if ratio < 1.0 - tolerance:
            ok = False

    cur_e2e = current.get("end_to_end", {})
    recorded = None
    for section in ("end_to_end", "quick_end_to_end"):
        ref = baseline.get(section, {})
        if ref.get("nodes") == cur_e2e.get("nodes") and ref.get("seed") == cur_e2e.get("seed"):
            recorded = (section, ref)
            break
    if recorded is None:
        print("note: no recorded digest matches this scale/seed; digest check skipped")
    elif cur_e2e.get("result_digest") != recorded[1].get("result_digest"):
        msg = (
            f"end-to-end result digest changed vs recorded {recorded[0]} "
            f"({cur_e2e.get('result_digest')} != {recorded[1].get('result_digest')}): "
            "simulation output is not bit-identical"
        )
        if strict_digest:
            fail(msg)
        print(f"WARNING: {msg}")
        print("WARNING: expected on a different toolchain/glibc; investigate if same-machine")
    else:
        print(f"digest ok vs recorded {recorded[0]}")

    if not ok:
        fail(f"a watched speedup fell more than {tolerance:.0%} below the recorded baseline")
    print("perf check passed")


if __name__ == "__main__":
    main()
