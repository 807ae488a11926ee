#!/usr/bin/env python3
"""Builds the benchmark driver (Release/NDEBUG) and runs it.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --smoke

Every argument is passed to the driver (see README.md). The build lives in
.bench_build/ at the root of the checkout; its output goes to stderr, so the
last line of stdout is the driver's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tilgc-benchmark")
BINARY = os.path.join(BUILD, "tilgc_bench")


def build():
    """Configures and builds the driver; returns False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no tilgc sources (src/) next to benchmark/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "tilgc_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
