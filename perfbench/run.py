#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/src/main.cpp).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload csc|wide|symbolic \
        --seed N --seconds S --trace 0|1

The benchmark executable is built from source with CMake into
.bench_build/perfbench (Release, all cores); later runs only re-check the
build, which takes about a second. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The measuring
process replaces this one (exec), so the benchmark is one process and
this script leaves nothing running. Exits non-zero, without a result,
when the build fails - for example in a directory that lacks the library
sources.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "si_perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "si_perfbench"],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
