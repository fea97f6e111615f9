#!/usr/bin/env python3
"""Build and run the benchmark for one workload; print one JSON result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark program
(perfbench/bench.ml) and the `ilp` binary are built with dune into
.bench_build; the benchmark then runs the workload in one process (plus
the forked set-ups and `ilp` runs it waits for) and prints `#` lines and
then the JSON result as the last line of standard output.  Exits
non-zero, printing no result, when the checkout has no sources, the
build fails, or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BENCH = os.path.join(HERE, "bench.exe")
ILP = os.path.join("bin", "ilp_cli.exe")
WORKLOADS = ("static_check", "fig4_1_par")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for path in ("dune-project", "lib", "bin", os.path.join(HERE, "dune")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a source checkout")
    # no shared dune cache: the build writes nothing outside the checkout
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./" + BENCH, "./" + ILP]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build failed")


def run(args):
    exe = os.path.join(BUILD_DIR, "default", BENCH)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ilp", os.path.join(BUILD_DIR, "default", ILP)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"run failed with exit code {done.returncode}")
    sys.stdout.write(done.stdout)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    build()
    run(args)


if __name__ == "__main__":
    main()
