#!/usr/bin/env python3
"""Builds taco_serve and taco_e2e from this checkout, then runs
the benchmark. Every argument is passed on to `taco_e2e run`:

    python3 bench/e2e/run.py --workload anchor_recalc --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build under the current
directory. Build output goes to stderr, so the last line on stdout is
taco_e2e's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", build_dir, "--target", "taco_e2e",
                     "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("taco_e2e build failed: " + " ".join(command))


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    exe = os.path.join(build_dir, "taco_e2e")
    sys.stdout.flush()
    os.execv(exe, [exe, "run",
                      "--work-dir", os.path.join(build_dir, "e2e-work"),
                      *sys.argv[1:]])


if __name__ == "__main__":
    main()
