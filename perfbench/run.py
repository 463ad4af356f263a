#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <suite-pgo|pgo-compile|server-edits>
                             --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/perfbench (Release, CMake); stores, profiles
and trace files go to .bench_build/perfbench-work. Build output goes to
stderr, so the last line on stdout is the run's JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    run = subprocess.run([binary] + sys.argv[1:] + ["--work-dir", WORK],
                         cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
