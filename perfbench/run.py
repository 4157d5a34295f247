#!/usr/bin/env python3
"""Builds and runs the wire-to-diagnosis benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fault_storm --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the analyzer sources it
compiles) into .bench_build/perfbench in Release mode; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Every argument is passed through to
the benchmark binary; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SCRATCH_DIR = os.path.join(BUILD_ROOT, "scratch")
BINARY = os.path.join(BUILD_DIR, "gretel_pipeline_bench")


def build():
    """Configures (once) and builds the benchmark; returns the exit code."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + os.path.join(
                ROOT, "perfbench")
            if home not in f.read().splitlines():
                shutil.rmtree(BUILD_DIR)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "gretel_pipeline_bench", "-j", jobs])
    for cmd in steps:
        code = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return code or 1
    return 0


def main():
    code = build()
    if code != 0:
        return code
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--scratch", SCRATCH_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
