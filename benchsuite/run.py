#!/usr/bin/env python3
"""Build bench_suite from source and run one workload of the benchmark.

    python3 benchsuite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
suite in .bench_build/; later runs only bring that build up to date.  Build
output goes to stderr.  Stdout carries bench_suite's report, and its last
line is the JSON result.  With --trace 1 the traced pass runs instead of the
untraced one; its spans land in .bench_build/trace.<workload>.json.  Exits
non-zero, without a result, when the build or the run fails, and exits 1
after printing the result when the run was not correct or an op failed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE = os.path.join(ROOT, "benchsuite")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_suite")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SUITE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_suite",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = os.path.join(BUILD, f"trace.{args.workload}.json")
    if args.trace:
        cmd += ["--trace", trace_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: bench_suite timed out", file=sys.stderr)
        return 1
    # bench_suite exits 1 after printing a result whose run was not correct
    # or had failed ops; that result is passed on.  Any other non-zero exit
    # is a crash or a usage error, with no result.
    if proc.returncode not in (0, 1):
        sys.stderr.write(out)
        return proc.returncode
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if args.trace:
            with open(trace_path) as f:
                json.load(f)
    except (IndexError, ValueError, OSError) as e:
        sys.stderr.write(out)
        print(f"run.py: unusable output: {e}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print("run.py: result line has the wrong keys", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
