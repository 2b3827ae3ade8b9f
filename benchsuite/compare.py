#!/usr/bin/env python3
"""Compare two sets of bench_suite results, metric by metric.

    python3 benchsuite/compare.py A.jsonl B.jsonl [--mode same|ab]

Each file holds one JSON object per line, with a "workload" key and a
"metrics" object of {"name": {"value": ..., "unit": ...}}: a bench_suite
--json record, or a run.py result line with "workload" added.  Every record
is one run and contributes one value per metric.  For each (workload,
metric) the script prints each side's median, quartiles and n, then a
verdict, using the bounds in the repository's BENCHMARK.json:

  --mode same (default): A and B are two sets of runs of the same code.
      "agree" when the medians differ, in either direction, by no more
      than the metric's bound; "noisy" when either side's spread
      (interquartile range / median) exceeds the bound.
  --mode ab: A is the parent and B the change, listed in run order so that
      the i-th A run and the i-th B run form a pair (alternate which side
      runs first).  "gain" needs at least 10 pairs, B winning at least 9 in
      10 of them (ties count for neither), and a median difference larger
      than A's interquartile range.  "REGRESSION" is B's median worse than
      A's by more than the bound.  A metric whose spread exceeds its bound
      is "unresolved", unless every B run beats every A run.

Exits 1 when a metric disagrees (same) or regresses (ab).  Standard library
only.
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = rec["workload"]
            if rec.get("pass") == "traced":
                key += " [traced]"
            for name, m in rec["metrics"].items():
                runs.setdefault((key, name), []).append(m["value"])
    return runs


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(a, b, better):
    """Relative amount by which b is worse than a (negative: b is better)."""
    if a == 0:
        return 0.0
    rel = (b - a) / abs(a)
    return rel if better == "lower" else -rel


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def verdict_same(a, b, spec):
    """Whether two sets of runs of the same code agree within the bound.

    A drift either way disagrees, since neither set is the reference:
    >>> spec = {"better": "lower", "bound": 0.1}
    >>> verdict_same([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], spec)
    ('agree', False)
    >>> verdict_same([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], spec)
    ('DISAGREE (B differs by +20.0%, bound 10%)', True)
    >>> verdict_same([1.0, 1.0, 1.0], [0.7, 0.7, 0.7], spec)
    ('DISAGREE (B differs by -30.0%, bound 10%)', True)
    """
    if spec is None or "bound" not in spec:
        return "-", False
    bound = spec["bound"]
    med_a = statistics.median(a)
    drift = (statistics.median(b) - med_a) / abs(med_a) if med_a else 0.0
    if abs(drift) > bound:
        return f"DISAGREE (B differs by {drift:+.1%}, bound {bound:.0%})", True
    if max(spread(a), spread(b)) > bound:
        return "noisy (spread > bound)", False
    return "agree", False


def verdict_ab(a, b, spec):
    if spec is None:
        return "-", False
    better = spec["better"]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x, better))
    med_a, q1_a, q3_a = quartiles(a)
    med_b = statistics.median(b)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(med_b - med_a) > q3_a - q1_a
            and beats(med_b, med_a, better)):
        return f"gain ({wins}/{len(pairs)} wins)", False
    if "bound" not in spec:
        return f"{wins}/{len(pairs)} wins", False
    bound = spec["bound"]
    all_better = all(beats(y, x, better) for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved (spread > bound)", False
    drift = worse_by(med_a, med_b, better)
    if drift > bound:
        return f"REGRESSION (worse by {drift:.1%} > {bound:.0%})", True
    return f"no regression ({wins}/{len(pairs)} wins)", False


def fmt(values):
    med, q1, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    ap = argparse.ArgumentParser(
        description="Compare two sets of bench_suite results.")
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--mode", choices=("same", "ab"), default="same")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load(args.a), load(args.b)
    judge = verdict_same if args.mode == "same" else verdict_ab

    failed = False
    print(f"{'workload':<28} {'metric':<24} {'A: median [q1, q3] n':<40} "
          f"{'B: median [q1, q3] n':<40} {'B vs A':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        va, vb = a[key], b[key]
        med_a = statistics.median(va)
        change = (statistics.median(vb) - med_a) / abs(med_a) if med_a else 0
        verdict, bad = judge(va, vb, specs.get(name))
        failed = failed or bad
        print(f"{workload:<28} {name:<24} {fmt(va):<40} {fmt(vb):<40} "
              f"{change:>+8.1%}  {verdict}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<28} {key[1]:<24} only in "
              f"{'A' if key in a else 'B'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
