#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <track_spec|spice_g3|pivot_doany> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt]

The first call configures and builds the wlp library and the perfbench
driver under .bench_build/perfbench (CMake + Ninja when available); later
calls only rebuild what changed.  Build output goes to standard error, so the
driver's JSON result stays the last line of standard output.  With
--trace 1 the benchmark's spans are written to
.bench_build/perfbench/spans_<workload>_<seed>.json.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build; returns the driver's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the wlp sources (src/) are missing", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def flag(args, name):
    """The value following `name` in args, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    if flag(args, "--trace") == "1":
        name = "spans_%s_%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans", os.path.join(BUILD, name)]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
