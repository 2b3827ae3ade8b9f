#!/usr/bin/env python3
"""Smoke test of bench_suite: every workload at --fast, then the traced pass.

    python3 benchsuite/smoke.py BENCH_SUITE_BINARY WORKDIR

Fails on a non-zero exit, on an incorrect record or a failed op, on a
sim_digest that differs between two processes running the same workload,
on metric names that do not match BENCHMARK.json, on a trace file that
does not parse, and on a failing compare.py doctest.  Registered as the
bench_suite_smoke ctest in benchsuite/CMakeLists.txt.
"""
import doctest
import json
import os
import subprocess
import sys

import compare

WORKLOADS = ["torus_itbrr", "dragonfly16_itbrr", "hyperx32x32_updown",
             "fig7_grid"]


def run(binary, *args):
    done = subprocess.run([binary, "--fast", *args], stdout=subprocess.PIPE,
                          text=True, timeout=240)
    if done.returncode != 0:
        sys.exit(f"smoke: bench_suite {' '.join(args)} exited "
                 f"{done.returncode}")
    return done.stdout


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check(recs, names, what):
    got = [r["workload"] for r in recs]
    if got != WORKLOADS:
        sys.exit(f"smoke: {what} records for {got}, expected {WORKLOADS}")
    for r in recs:
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            sys.exit(f"smoke: {what} {r['workload']}: correct={r['correct']} "
                     f"failed={r['failed']} of {r['attempted']}")
        missing = [n for n in names if n not in r["metrics"]]
        if missing:
            sys.exit(f"smoke: {what} {r['workload']} lacks {missing}")


def main():
    if doctest.testmod(compare).failed:
        sys.exit("smoke: compare.py doctests failed")
    binary, workdir = sys.argv[1], sys.argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(workdir, exist_ok=True)

    untraced = os.path.join(workdir, "smoke.jsonl")
    run(binary, "--workload", "all", "--json", untraced)
    recs = records(untraced)
    check(recs, [m["name"] for m in bench["end_to_end"]], "untraced")

    again = os.path.join(workdir, "smoke_again.jsonl")
    if os.path.exists(again):
        os.remove(again)
    run(binary, "--workload", WORKLOADS[0], "--json", again)
    if records(again)[0]["sim_digest"] != recs[0]["sim_digest"]:
        sys.exit("smoke: sim_digest differs between two identical runs")

    traced = os.path.join(workdir, "smoke_traced.jsonl")
    trace = os.path.join(workdir, "smoke_trace.json")
    run(binary, "--workload", "all", "--json", traced, "--trace", trace)
    check(records(traced), [m["name"] for m in bench["per_layer"]], "traced")
    for w in WORKLOADS:
        with open(os.path.join(workdir, f"smoke_trace.{w}.json")) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            sys.exit(f"smoke: empty trace for {w}")
    print("bench_suite smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
