#!/usr/bin/env python3
"""Self-test of the benchmark's correctness oracle.

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload it runs the benchmark twice for one second: once as is,
which must pass with no mismatch, and once with --corrupt, which perturbs
every result of the p-thread pool before the oracle sees it and so must
report failed executions (match_ratio below 1, correct false) and exit
non-zero.  Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["track_spec", "spice_g3", "pivot_doany"]


def bench(workload, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def main():
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        code, res = bench(w)
        if code != 0 or not res or not res["correct"] or res["failed"] != 0:
            problems.append("%s: clean run did not pass (exit %d)" % (w, code))
        code, res = bench(w, "--corrupt")
        if code == 0:
            problems.append("%s: corrupted run exited 0" % w)
        if not res or res["correct"] or res["failed"] == 0 or \
                res["metrics"]["match_ratio"]["value"] >= 1:
            problems.append("%s: corrupted results were not counted as mismatches" % w)
        print("%s: %s" % (w, "ok" if len(problems) == before else "FAILED"), flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
