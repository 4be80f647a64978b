#!/usr/bin/env python3
# Copyright 2026 The QPGC Authors.
"""Builds and runs the end-to-end benchmark for one workload.

Run from the repository root:

  python3 perfbench/run.py --workload social-uniform --seed 1 \
      --seconds 20 --trace 0

The build (the qpgc library plus perfbench/src/main.cc, Release) goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset. The last line of stdout is the benchmark's JSON result; build output
and the benchmark's sample counts go to stderr. The exit code is the
benchmark's: 0 on success, non-zero on a failed build, a wrong answer or a
bad argument (then no result line is printed, or one with "correct": false).
See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("social-uniform", "grid-hot", "social-sharded")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(source_dir, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        if not run_logged(["cmake", "-S", source_dir, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            # A failed configure must not leave a cache the next run trusts.
            if os.path.exists(cache):
                os.remove(cache)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", build_dir, "--target",
                       "qpgc_perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(build_dir, "qpgc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
