#!/usr/bin/env python3
"""Builds the benchmark (engine sources plus the xqbench program, Release)
and runs one workload. Run from the root of a checkout:

    python3 perfbench/run.py --workload <paper_queries|sql_scan|mixed_rw> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Build output goes to stderr; the result is the last line of
stdout. Builds into .bench_build/perfbench under the current directory.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "xqbench")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "xqbench", "-j", jobs],
        stdout=sys.stderr) == 0


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    seconds = 60
    if "--seconds" in args:
        seconds = int(args[args.index("--seconds") + 1])
    if "--selftest" not in args:
        args += ["--work-dir", os.path.join(BUILD_ROOT, "run")]
    try:
        return subprocess.run([BINARY] + args, timeout=seconds + 150).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
