#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark between two checkouts.

Usage: perf_ab.py BASE_DIR HEAD_DIR

For every workload of HEAD_DIR's BENCHMARK.json that BASE_DIR's also names,
runs five interleaved pairs of

    python3 perfbench/run.py --workload W --seed 1 --seconds 15 --trace 0

once from each checkout (each builds its own runner under .bench_build/),
alternating which side runs first. It then prints one table row per workload
and end-to-end metric: the median and quartiles of each side, the change of
the median, and the metric's bound.

Exits 1 when any run is not `correct`, when a workload's failed share
(failed / attempted replications) is higher at HEAD, or when an end-to-end
metric's HEAD median is worse than the BASE median by more than its bound.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SEED = 1
SECONDS = 15
# One run.py call: a build check plus a run that must end within 180 s.
RUN_TIMEOUT_S = 1200


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload):
    """Runs one workload from `checkout`; returns its parsed result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit("perf_ab: %s exited %d in %s" % (workload, done.returncode, checkout))
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with the inclusive method, so five values give exact ranks."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(spec, workload, base_runs, head_runs):
    """Gates one workload; returns (table rows, failure messages).

    `base_runs` and `head_runs` are lists of run.py result lines.
    """
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            failures.append("%s: %d %s run(s) not correct" % (workload, bad, side))

    def failed_share(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    base_share, head_share = failed_share(base_runs), failed_share(head_runs)
    if head_share > base_share:
        failures.append("%s: failed share rose from %.4f to %.4f" %
                        (workload, base_share, head_share))

    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = quartiles([r["metrics"][name]["value"] for r in base_runs])
        head = quartiles([r["metrics"][name]["value"] for r in head_runs])
        # BENCHMARK.json metrics are never 0, so the base median divides.
        change = (head[1] - base[1]) / base[1]
        worse = change if metric["better"] == "lower" else -change
        ok = worse <= metric["bound"]
        if not ok:
            failures.append("%s: %s median %.6g -> %.6g is %.1f%% worse, bound %.0f%%" %
                            (workload, name, base[1], head[1], 100 * worse,
                             100 * metric["bound"]))
        rows.append((workload, name, metric["unit"], base, head, change, metric["bound"], ok))
    rows.append((workload, "failed share", "share", (base_share,) * 3, (head_share,) * 3,
                 head_share - base_share, 0.0, head_share <= base_share))
    return rows, failures


def print_table(rows):
    def cell(q):
        return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])

    header = ("workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]",
              "change", "bound", "")
    table = [header] + [(w, m, u, cell(b), cell(h), "%+.1f%%" % (100 * c), "%.0f%%" % (100 * bd),
                         "ok" if ok else "WORSE") for w, m, u, b, h, c, bd, ok in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)).rstrip())


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    base_dir, head_dir = (os.path.abspath(p) for p in sys.argv[1:])
    spec = load_spec(head_dir)
    base_names = {w["name"] for w in load_spec(base_dir)["workloads"]}

    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base_names:
            print("perf_ab: %s is new at HEAD; not gated" % workload, flush=True)
            continue
        runs = {base_dir: [], head_dir: []}
        for pair in range(PAIRS):
            order = (base_dir, head_dir) if pair % 2 == 0 else (head_dir, base_dir)
            for checkout in order:
                runs[checkout].append(run_once(checkout, workload))
            print("perf_ab: %s pair %d/%d done" % (workload, pair + 1, PAIRS), flush=True)
        workload_rows, workload_failures = compare(spec, workload, runs[base_dir],
                                                   runs[head_dir])
        rows += workload_rows
        failures += workload_failures

    print()
    print_table(rows)
    for message in failures:
        print("perf_ab: FAIL " + message, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
