#!/usr/bin/env python3
"""End-to-end LPCE serving benchmark: build, self-test, run.

Builds the engine library and the benchmark from source (into
.bench_build/e2ebench under the checkout root), runs the harness self-test,
then one benchmark run:

    python3 e2ebench/run.py --workload join_heavy --seed 1 --seconds 10 --trace 0

The last line of stdout is the result JSON. Build output goes to stderr.
Exits non-zero without a result when the build, the self-test or the run
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def check(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to the benchmark")
    jobs = str(os.cpu_count() or 1)
    check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    check(["cmake", "--build", BUILD, "-j", jobs, "--target", "lpce_e2e",
           "e2e_harness_test"], 840)
    check([os.path.join(BUILD, "e2e_harness_test")], 120)

    cmd = [os.path.join(BUILD, "lpce_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(),
           "--out-dir", os.path.join(ROOT, ".bench_build", "e2e_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    # On a row-count mismatch the result line says "correct": false and the
    # exit code is non-zero.
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
