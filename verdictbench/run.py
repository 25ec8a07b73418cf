#!/usr/bin/env python3
"""Builds and runs the design-text-to-verdict benchmark.

Run from the repository root:

    python3 verdictbench/run.py --workload validate|equiv|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds the benchmark (the library sources under
src/ plus the verdictbench program in this directory) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The program's report goes to stdout; its last
line is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO_ROOT, base, "verdictbench")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "core", "validator.hpp")):
        sys.exit("verdictbench: library sources not found under %s/src"
                 % REPO_ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "verdictbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["validate", "equiv", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one known answer (self-check only)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("verdictbench: build failed: %s" % e)

    # Relative, so the serve socket path stays short.
    workdir = os.path.relpath(build_dir(), REPO_ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.plant_wrong_answer:
        cmd.append("--plant-wrong-answer")
    try:
        run = subprocess.run(cmd, cwd=REPO_ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("verdictbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit("verdictbench: benchmark program exited with code %d" % run.returncode)


if __name__ == "__main__":
    main()
