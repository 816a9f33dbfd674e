#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one build, compared.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10

Each set runs the BENCHMARK.json command once per workload of BENCHMARK.json
and seed (set 1 takes seeds 1..runs, set 2 seeds runs+1..2*runs), untraced,
for run_seconds each. For every workload and end-to-end metric it prints
both sets' medians and quartiles and checks what the benchmark promises:

  * within each set, the quartile spread (Q3 - Q1) / median of every metric
    stays within the metric's bound (target: a third of it);
  * set 2's median is not worse than set 1's by more than the bound;
  * no run has a failed operation (so the share of failed operations is
    the same, zero, in both sets).

Raw per-run results are written as JSON to --out. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    # A run with failed operations exits 1 but still prints its result.
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("steady: %s seed %d exited %d" % (workload, seed,
                                                   proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "steady.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {}  # workload -> [set1 results, set2 results]
    for s in range(2):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                r = run_once(spec, w, seed)
                results.setdefault(w, [[], []])[s].append(r)
                print("steady: set %d %-6s seed %3d  %s" % (
                    s + 1, w, seed, "  ".join(
                        "%s=%.6g" % (m["name"], r["metrics"][m["name"]]["value"])
                        for m in metrics)), file=sys.stderr)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "runs": args.runs,
                   "results": results}, f, indent=1)

    ok = True
    print("%-7s %-14s %6s | %-12s %-25s %7s | %-12s %-25s %7s | %7s %s" % (
        "load", "metric", "bound", "median 1", "Q1..Q3 1", "spread",
        "median 2", "Q1..Q3 2", "spread", "worse", "verdict"))
    for w in workloads:
        sets = results[w]
        failed = [sum(r["failed"] for r in runs) for runs in sets]
        if any(failed):
            ok = False
            print("%-7s failed operations: %d in set 1, %d in set 2" % (
                w, *failed))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            stats = [spread(v) for v in vals]
            meds = [statistics.median(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            checks = [worse <= bound] + [st[2] <= bound for st in stats]
            steady = all(st[2] < bound / 3 for st in stats)
            verdict = ("ok" if all(checks) else "FAIL") + (
                "" if steady else " (spread above bound/3)")
            ok = ok and all(checks)
            print("%-7s %-14s %6.3f | %-12.6g %-25s %7.4f | %-12.6g %-25s %7.4f"
                  " | %+7.4f %s" % (
                      w, name, bound,
                      meds[0], "%.6g..%.6g" % stats[0][:2], stats[0][2],
                      meds[1], "%.6g..%.6g" % stats[1][:2], stats[1][2],
                      worse, verdict))
    print("steady: %s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
