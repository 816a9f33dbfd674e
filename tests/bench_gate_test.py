#!/usr/bin/env python3
"""Checks that tools/check_bench_regression.py refuses mismatched documents.

A baseline timed with a different CPU count or a different repo build type
than the candidate must be refused with exit 2, never compared; matching
documents with equal medians must pass with exit 0.

Usage: bench_gate_test.py PATH/TO/check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile


def doc(num_cpus, build_type):
    rows = [{"name": f"{n}_median", "aggregate_name": "median",
             "real_time": t, "time_unit": "ms"}
            for n, t in (("BM_SgBatchNaive/110", 30.0),
                         ("BM_SgBatchFast/110", 3.0))]
    return {"schema": 1,
            "context": {"num_cpus": num_cpus, "repo_build_type": build_type},
            "benches": {"bench_sg_construction": rows}}


def gate(script, tmp, baseline, candidate):
    paths = []
    for name, d in (("baseline.json", baseline), ("candidate.json", candidate)):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(d, f)
        paths.append(path)
    return subprocess.run([sys.executable, script] + paths,
                          capture_output=True, text=True).returncode


def main():
    script = sys.argv[1]
    cases = [
        ("matching documents", doc(4, "Release"), doc(4, "Release"), 0),
        ("num_cpus differs", doc(1, "Release"), doc(4, "Release"), 2),
        ("repo_build_type differs", doc(4, "RelWithDebInfo"),
         doc(4, "Release"), 2),
    ]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for label, baseline, candidate, want in cases:
            got = gate(script, tmp, baseline, candidate)
            status = "ok" if got == want else "FAIL"
            print(f"{status}: {label}: exit {got} (want {want})")
            failed = failed or got != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
