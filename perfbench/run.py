#!/usr/bin/env python3
"""Builds the perfbench binary in Release and runs one benchmark run.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot-rw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds (incrementally) into .bench_build/ and runs one
workload; the last line of standard output is the run's JSON result. Build
output and the binary's own summary go to standard error.

--smoke is the benchmark's self-test: it runs all three workloads, untraced
and traced, on small inputs with the full correctness oracle, and checks
that every metric printed is named in BENCHMARK.json with the same unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["hot-rw", "bank", "deep"]


def build():
    """Configures and (incrementally) builds the binary; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, smoke=False, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    stdout = subprocess.PIPE if capture else None
    return subprocess.run(cmd, stdout=stdout, text=True, cwd=ROOT)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads %s != %s"
              % (sorted(names), WORKLOADS), file=sys.stderr)
        return 1
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_binary(workload, 1, 1, trace, smoke=True, capture=True)
            where = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(where + ": exit %d" % proc.returncode)
                continue
            result = json.loads(lines[-1])
            if (not result["correct"] or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append(where + ": correct=%s attempted=%d failed=%d"
                                % (result["correct"], result["attempted"],
                                   result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(set(got) | set(expected[trace])):
                if name not in expected[trace]:
                    problems.append(where + ": %s not in BENCHMARK.json" % name)
                elif name not in got:
                    problems.append(where + ": %s not printed" % name)
                elif got[name] != expected[trace][name]:
                    problems.append(where + ": %s unit %s, BENCHMARK.json says %s"
                                    % (name, got[name], expected[trace][name]))
            print("smoke: %-16s attempted %5d failed %d, %d metrics"
                  % (where, result["attempted"], result["failed"], len(got)),
                  file=sys.stderr)
    for p in problems:
        print("smoke: FAIL " + p, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small self-test of all workloads")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    return run_binary(args.workload, args.seed, args.seconds,
                      args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
