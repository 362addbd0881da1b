#!/usr/bin/env python3
"""Builds the session benchmark from the checkout and runs one workload.

    python3 sessionbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine library and the benchmark are
compiled from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result when the
checkout has no engine sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus set-up, warm-up and checks; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print("sessionbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("no engine sources under src/ (run from the root of a checkout)")
    if not os.path.isdir(os.path.join(ROOT, "queries")):
        fail("no queries/ corpus in the checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "session_bench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
