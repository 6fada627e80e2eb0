#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark between two checkouts.

Usage: perf_ab.py [--workload NAME]... [--pairs N] [--seed S]
                  [--claim WORKLOAD:METRIC]... BASE_DIR HEAD_DIR

For every workload of HEAD_DIR's BENCHMARK.json that BASE_DIR's also names
(or only the --workload ones), runs N interleaved pairs (default 5) of

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

once from each checkout (each builds its own runner under .bench_build/),
alternating which side runs first. It then prints one table row per workload
and end-to-end metric: the median and quartiles of each side, the change of
the median, the metric's bound, and in how many pairs HEAD was strictly
better than BASE (the pair-wise reading a speed-up claim needs).

Exits 1 when any run is not `correct`, when a workload's failed share
(failed / attempted replications) is higher at HEAD, or when an end-to-end
metric's HEAD median is worse than the BASE median by more than its bound.

`--claim WORKLOAD:METRIC` (repeatable) also checks a claimed gain on one
end-to-end metric by the speed-claim rule: HEAD must be better in at least
9 of every 10 pairs, and its median must beat the BASE median by more than
the BASE q1-q3 spread. A claim that does not hold exits 1 as well.
"""

import argparse
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


def run_once(checkout, workload, seed):
    """Runs one workload from `checkout`; returns its parsed result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
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
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(spec, workload, base_runs, head_runs):
    """Gates one workload; returns (table rows, failure messages).

    `base_runs` and `head_runs` are lists of run.py result lines; their i-th
    entries ran as pair i. Each row ends with the pair-wise "better in k/n"
    count and the gate verdict.
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
        base_values = [r["metrics"][name]["value"] for r in base_runs]
        head_values = [r["metrics"][name]["value"] for r in head_runs]
        base, head = quartiles(base_values), quartiles(head_values)
        sign = 1 if metric["better"] == "lower" else -1
        better = sum(1 for b, h in zip(base_values, head_values) if sign * (h - b) < 0)
        # BENCHMARK.json metrics are never 0, so the base median divides.
        change = (head[1] - base[1]) / base[1]
        worse = change if metric["better"] == "lower" else -change
        ok = worse <= metric["bound"]
        if not ok:
            failures.append("%s: %s median %.6g -> %.6g is %.1f%% worse, bound %.0f%%" %
                            (workload, name, base[1], head[1], 100 * worse,
                             100 * metric["bound"]))
        rows.append((workload, name, metric["unit"], base, head, change, metric["bound"],
                     "%d/%d" % (better, len(base_values)), ok))
    rows.append((workload, "failed share", "share", (base_share,) * 3, (head_share,) * 3,
                 head_share - base_share, 0.0, "-", head_share <= base_share))
    return rows, failures


def check_claim(spec, workload, metric, base_runs, head_runs):
    """Applies the speed-claim rule to one end-to-end metric.

    Returns (message, holds). The gap is signed so that a positive value is
    an improvement, whichever way the metric is better.
    """
    better_dir = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
    sign = 1 if better_dir == "lower" else -1
    base_values = [r["metrics"][metric]["value"] for r in base_runs]
    head_values = [r["metrics"][metric]["value"] for r in head_runs]
    better = sum(1 for b, h in zip(base_values, head_values) if sign * (h - b) < 0)
    base, head = quartiles(base_values), quartiles(head_values)
    gap = sign * (base[1] - head[1])
    spread = base[2] - base[0]
    holds = 10 * better >= 9 * len(base_values) and gap > spread
    message = ("claim %s %s: better in %d/%d pairs (needs 9/10), median gap %.6g vs base "
               "q1-q3 spread %.6g: %s" % (workload, metric, better, len(base_values), gap,
                                          spread, "holds" if holds else "DOES NOT HOLD"))
    return message, holds


def print_table(rows):
    def cell(q):
        return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])

    header = ("workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]",
              "change", "bound", "better in", "")
    table = [header] + [(w, m, u, cell(b), cell(h), "%+.1f%%" % (100 * c), "%.0f%%" % (100 * bd),
                         k, "ok" if ok else "WORSE") for w, m, u, b, h, c, bd, k, ok in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)).rstrip())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("head_dir")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=PAIRS, metavar="N",
                        help="interleaved pairs per workload (default %d)" % PAIRS)
    parser.add_argument("--seed", type=int, default=SEED, metavar="S",
                        help="perfbench world seed (default %d)" % SEED)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="check a claimed gain by the speed-claim rule (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    claims = []
    for claim in args.claim:
        workload, _, metric = claim.rpartition(":")
        if not workload or not metric:
            parser.error("--claim takes WORKLOAD:METRIC, got %r" % claim)
        claims.append((workload, metric))
    args.claim = claims
    return args


def main():
    args = parse_args(sys.argv[1:])
    base_dir, head_dir = (os.path.abspath(p) for p in (args.base_dir, args.head_dir))
    spec = load_spec(head_dir)
    base_names = {w["name"] for w in load_spec(base_dir)["workloads"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for name in args.workload:
        if name not in workloads:
            sys.exit("perf_ab: unknown workload %s (known: %s)" % (name, ", ".join(workloads)))
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    metrics = [m["name"] for m in spec["end_to_end"]]
    for workload, metric in args.claim:
        if workload not in workloads:
            sys.exit("perf_ab: claim on %s, which this run does not include" % workload)
        if metric not in metrics:
            sys.exit("perf_ab: claim on %s, which is not an end-to-end metric (known: %s)" %
                     (metric, ", ".join(metrics)))

    rows, failures, claim_lines = [], [], []
    for workload in workloads:
        if workload not in base_names:
            print("perf_ab: %s is new at HEAD; not gated" % workload, flush=True)
            failures += ["claim %s %s: the base has no such workload" % (workload, metric)
                         for claimed, metric in args.claim if claimed == workload]
            continue
        runs = {base_dir: [], head_dir: []}
        for pair in range(args.pairs):
            order = (base_dir, head_dir) if pair % 2 == 0 else (head_dir, base_dir)
            for checkout in order:
                runs[checkout].append(run_once(checkout, workload, args.seed))
            print("perf_ab: %s pair %d/%d done" % (workload, pair + 1, args.pairs), flush=True)
        workload_rows, workload_failures = compare(spec, workload, runs[base_dir],
                                                   runs[head_dir])
        rows += workload_rows
        failures += workload_failures
        for claimed, metric in args.claim:
            if claimed == workload:
                message, holds = check_claim(spec, workload, metric, runs[base_dir],
                                             runs[head_dir])
                claim_lines.append(message)
                if not holds:
                    failures.append(message)

    print()
    print_table(rows)
    for message in claim_lines:
        print("perf_ab: " + message)
    for message in failures:
        print("perf_ab: FAIL " + message, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
