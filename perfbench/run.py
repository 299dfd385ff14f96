#!/usr/bin/env python3
"""Build and run the whole-step benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which builds the library through the repository's own CMake
file) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the last stdout line is the driver's JSON
result. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<n>.json (open it in Perfetto).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKERS = "4"


def build():
    """Configure once, then build incrementally; True on success."""
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "step_bench", "-j", WORKERS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "step_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, OMP_NUM_THREADS=WORKERS)
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
