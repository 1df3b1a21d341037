#!/usr/bin/env python3
"""PCR data-plane benchmark: builds, self-tests and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the repository's libraries from source) under
$CARGO_TARGET_DIR (default .bench_build), and builds the CelebA-HQ-like
fixture and its oracle there; later runs reuse both. Every run first runs
the benchmark's self-tests. Standard output is pcr_perfbench's report,
ending with its result JSON line; build and self-test output go to standard
error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local_full", "remote_full", "serve_compressed", "serve_mixed",
             "serve_warm")


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it at the timeout); returns it."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configured = run(["cmake", "-S", HERE, "-B", build_dir], 300,
                         stdout=sys.stderr)
        if configured.returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    built = run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "pcr_perfbench", "pcr_perfbench_selftest"], 840,
                stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    build(build_dir)

    selftest = run([os.path.join(build_dir, "pcr_perfbench_selftest"),
                    work_dir], 30, stdout=sys.stderr)
    if selftest.returncode != 0:
        sys.exit("perfbench: self-tests failed")

    # Relative paths keep the daemon's unix socket paths short.
    bench = run([os.path.join(build_dir, "pcr_perfbench"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--work-dir", os.path.relpath(work_dir, ROOT)],
                150, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = bench.stdout.splitlines()
    if bench.returncode != 0 or not lines:
        sys.stderr.write(bench.stdout)
        sys.exit("perfbench: %s exited with %d" % (args.workload,
                                                   bench.returncode))
    json.loads(lines[-1])  # The result line must be JSON.
    print("\n".join(lines))


if __name__ == "__main__":
    main()
