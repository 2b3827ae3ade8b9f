#!/usr/bin/env python3
"""Non-blocking perf-smoke comparison against a committed BENCH_*.json.

Usage:
    perf_check.py BASELINE.json FRESH.json [--tolerance 0.20]

Reads the events/sec-style rates from both perf records (the sections
written by `bench_micro_kernel --json` and `bench_parallel_scaling --json`)
and emits a GitHub Actions `::warning` for every rate that regressed by
more than the tolerance.  Absolute rates vary across machines, so this is
a smoke alarm, not a gate: the script ALWAYS exits 0.
"""

import argparse
import json
import sys


def rates(record):
    """Flatten a perf record into {label: rate} for every throughput rate."""
    out = {}
    mk = record.get("micro_kernel", {})
    kern = mk.get("engine_kernel", {})
    if "pod_ops_per_sec" in kern:
        out["engine_kernel.pod_ops_per_sec"] = kern["pod_ops_per_sec"]
    e2e = mk.get("end_to_end", {})
    if "pod_events_per_sec" in e2e:
        out["end_to_end.pod_events_per_sec"] = e2e["pod_events_per_sec"]
    overhead = mk.get("checked_overhead", {})
    for key in ("ledger_off_events_per_sec", "ledger_on_events_per_sec",
                "checked_events_per_sec"):
        if key in overhead:
            out[f"checked_overhead.{key}"] = overhead[key]
    telemetry = mk.get("telemetry", {})
    for key in ("disabled_events_per_sec", "traced_events_per_sec",
                "sampled_events_per_sec", "profiled_events_per_sec",
                "sharded_disabled_events_per_sec",
                "sharded_traced_events_per_sec",
                "sharded_profiled_events_per_sec"):
        if key in telemetry:
            out[f"telemetry.{key}"] = telemetry[key]
    shard = mk.get("shard_ab", {})
    if "serial_events_per_sec" in shard:
        out["shard_ab.serial_events_per_sec"] = shard["serial_events_per_sec"]
    for sample in shard.get("shards", []):
        if "shards" in sample and "events_per_sec" in sample:
            out[f"shard_ab.k{sample['shards']}.events_per_sec"] = (
                sample["events_per_sec"]
            )
    for sample in record.get("parallel_scaling", {}).get("samples", []):
        if "jobs" in sample and "events_per_sec" in sample:
            out[f"parallel_scaling.jobs{sample['jobs']}.events_per_sec"] = (
                sample["events_per_sec"]
            )
    return out


def parallel_efficiency(record):
    """Per-worker parallel efficiency: jobs=N per-worker rate / jobs=1 rate.

    Per-worker divides the aggregate rate by min(jobs, cores), so on an
    oversubscribed box healthy efficiency stays near 1.0 and only drops
    when workers contend (the allocator-lock convoys the workspace layer
    removes).  Newer records carry the bench-computed ``efficiency``
    directly; older ones are derived from the aggregate rates.
    """
    section = record.get("parallel_scaling", {})
    samples = [s for s in section.get("samples", []) if "jobs" in s]
    if not samples:
        return None
    top = max(samples, key=lambda s: s["jobs"])
    if "efficiency" in top:
        return top["efficiency"]
    base = next((s for s in samples if s["jobs"] == 1), None)
    if base is None or "events_per_sec" not in top:
        return None
    hw = section.get("hardware_concurrency", 1) or 1

    def per_worker(sample):
        return sample["events_per_sec"] / min(sample["jobs"], hw)

    return per_worker(top) / per_worker(base)


# Absolute floor for parallel efficiency; below this the workers are
# fighting each other rather than merely sharing a machine.
EFFICIENCY_FLOOR = 0.9

# Budget for the telemetry layer's compiled-in-but-disabled cost: the
# end-to-end POD rate (tracer/profiler hooks present, gated off by null
# pointers) may sit at most this fraction below the committed baseline.
TRACING_OVERHEAD_BUDGET = 0.02

# Budget for the compressed route store's end-to-end cost: the flat-store
# POD rate may sit at most this fraction below the baseline's (which for
# pre-flat-store baselines is the nested-table rate, making this the
# nested-vs-flat e2e A/B across records).
ROUTE_STORE_E2E_BUDGET = 0.02


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown (default 0.20)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline_record = json.load(f)
        with open(args.fresh) as f:
            fresh_record = json.load(f)
    except (OSError, ValueError) as err:
        print(f"::warning title=perf-smoke::could not compare records: {err}")
        return 0
    baseline = rates(baseline_record)
    fresh = rates(fresh_record)

    regressions = 0
    for label, base in sorted(baseline.items()):
        if label not in fresh:
            print(f"::warning title=perf-smoke::{label} missing from fresh "
                  "record")
            continue
        now = fresh[label]
        if base <= 0:
            continue
        ratio = now / base
        marker = ""
        if ratio < 1.0 - args.tolerance:
            regressions += 1
            marker = "  <-- REGRESSION"
            print(f"::warning title=perf-smoke::{label} regressed "
                  f"{(1.0 - ratio) * 100.0:.1f}% "
                  f"({base:.3g} -> {now:.3g} events/s)")
        print(f"  {label}: {base:.3g} -> {now:.3g} "
              f"({ratio:.2f}x){marker}")

    # Tracing-disabled overhead smoke: the telemetry hooks live in the hot
    # path behind null-pointer gates, so the plain end-to-end rate is the
    # measure of their disabled cost.  Budgeted tighter than the general
    # tolerance; same warning-only caveat (absolute rates vary by machine).
    base_pod = baseline.get("end_to_end.pod_events_per_sec")
    fresh_pod = fresh.get("end_to_end.pod_events_per_sec")
    if base_pod and fresh_pod:
        overhead = 1.0 - fresh_pod / base_pod
        print(f"  tracing-disabled overhead vs baseline: "
              f"{overhead * 100.0:+.1f}% "
              f"(budget {TRACING_OVERHEAD_BUDGET * 100.0:.0f}%)")
        if overhead > TRACING_OVERHEAD_BUDGET:
            regressions += 1
            print(f"::warning title=perf-smoke::tracing-disabled end-to-end "
                  f"rate {overhead * 100.0:.1f}% below baseline (budget "
                  f"{TRACING_OVERHEAD_BUDGET * 100.0:.0f}%)")
    # Enabled-telemetry costs within the fresh record (informational).
    tele_off = fresh.get("telemetry.disabled_events_per_sec")
    for label in ("traced", "sampled", "profiled"):
        rate = fresh.get(f"telemetry.{label}_events_per_sec")
        if tele_off and rate:
            print(f"  telemetry {label}: {rate:.3g} events/s "
                  f"({(1.0 - rate / tele_off) * 100.0:+.1f}% vs disabled)")

    # Sharded telemetry smoke: the per-lane tracer/profiler hooks sit in
    # the same hot path under pod_parallel, so the sharded
    # tracing-disabled rate carries the same ≤2% budget against the
    # baseline's sharded rate.  A pre-sharded-telemetry baseline records
    # that rate in shard_ab (same K, same point); newer baselines carry
    # telemetry.sharded_disabled_events_per_sec directly.
    fresh_tele = fresh_record.get("micro_kernel", {}).get("telemetry", {})
    sh_k = fresh_tele.get("sharded_shards")
    sh_off = fresh.get("telemetry.sharded_disabled_events_per_sec")
    base_sh = baseline.get("telemetry.sharded_disabled_events_per_sec")
    if base_sh is None and sh_k is not None:
        base_sh = baseline.get(f"shard_ab.k{int(sh_k)}.events_per_sec")
    if base_sh and sh_off:
        overhead = 1.0 - sh_off / base_sh
        print(f"  sharded tracing-disabled overhead vs baseline: "
              f"{overhead * 100.0:+.1f}% "
              f"(budget {TRACING_OVERHEAD_BUDGET * 100.0:.0f}%)")
        if overhead > TRACING_OVERHEAD_BUDGET:
            regressions += 1
            print(f"::warning title=perf-smoke::sharded tracing-disabled "
                  f"rate {overhead * 100.0:.1f}% below baseline (budget "
                  f"{TRACING_OVERHEAD_BUDGET * 100.0:.0f}%)")
    for label in ("traced", "profiled"):
        rate = fresh.get(f"telemetry.sharded_{label}_events_per_sec")
        if sh_off and rate:
            print(f"  sharded telemetry {label} (K={sh_k}): "
                  f"{rate:.3g} events/s "
                  f"({(1.0 - rate / sh_off) * 100.0:+.1f}% vs disabled)")
    if fresh_tele.get("sharded_barrier_wait_ms") is not None:
        print(f"  sharded traced barrier wait: "
              f"{fresh_tele['sharded_barrier_wait_ms']:.1f} ms, "
              f"lane imbalance "
              f"{fresh_tele.get('sharded_lane_imbalance', 0.0):.2f}")

    # Route-store smoke: the flat store's end-to-end rate against the
    # baseline pod rate (a nested-era baseline makes this the nested-vs-flat
    # comparison), plus the fresh record's build/memory numbers.
    route = fresh_record.get("micro_kernel", {}).get("route_store", {})
    flat_e2e = route.get("flat_e2e_events_per_sec")
    if base_pod and flat_e2e:
        overhead = 1.0 - flat_e2e / base_pod
        print(f"  route-store e2e vs baseline: {overhead * 100.0:+.1f}% "
              f"(budget {ROUTE_STORE_E2E_BUDGET * 100.0:.0f}%)")
        if overhead > ROUTE_STORE_E2E_BUDGET:
            regressions += 1
            print(f"::warning title=perf-smoke::flat route-store end-to-end "
                  f"rate {overhead * 100.0:.1f}% below baseline (budget "
                  f"{ROUTE_STORE_E2E_BUDGET * 100.0:.0f}%)")
    if route:
        shrink = route.get("table_shrink")
        speedup = route.get("parallel_build_speedup")
        if shrink is not None:
            print(f"  route-store table shrink vs nested: {shrink:.2f}x")
        if speedup is not None:
            print(f"  route-store parallel build speedup "
                  f"(jobs={route.get('parallel_jobs', '?')}): {speedup:.2f}x")
        if route.get("parallel_bit_identical") is False:
            regressions += 1
            print("::warning title=perf-smoke::parallel route build is NOT "
                  "bit-identical to the serial build")

    # Sharded-engine smoke (informational, never a rate gate): the
    # conservative window engine's speedup over serial for one simulation.
    # Hosted CI runners are often effectively single-core, where sharding
    # legitimately runs BELOW 1.0x (barrier overhead, no parallel gain), so
    # only the determinism bit warns — speedups are for multicore boxes
    # reading the committed record.
    shard = fresh_record.get("micro_kernel", {}).get("shard_ab", {})
    shard_serial = shard.get("serial_events_per_sec")
    for sample in shard.get("shards", []):
        rate = sample.get("events_per_sec")
        if shard_serial and rate:
            print(f"  shard speedup K={sample.get('shards', '?')}: "
                  f"{rate / shard_serial:.2f}x "
                  f"(ties {sample.get('boundary_ties', '?')})")
    if shard.get("bit_identical") is False:
        regressions += 1
        print("::warning title=perf-smoke::sharded engine is NOT "
              "bit-identical to the serial engine")
    scaling = fresh_record.get("parallel_scaling", {})
    if scaling.get("shard_deterministic") is False:
        regressions += 1
        print("::warning title=perf-smoke::intra-run sharding is NOT "
              "bit-identical to the serial engine")

    # Low-diameter smoke (PR 8): the 1k-switch checked scale cells must be
    # bit-identical between serial and sharded runs and invariant-free;
    # table footprint/build times are informational (machine-dependent).
    lowdiam = fresh_record.get("lowdiameter", {})
    for table in lowdiam.get("tables", []):
        print(f"  lowdiameter table {table.get('testbed', '?')}/"
              f"{table.get('scheme', '?')}: "
              f"{table.get('table_bytes', 0) / 1024.0:.1f} KiB, "
              f"build {table.get('build_ms', 0):.1f} ms")
    scale = fresh_record.get("lowdiameter_scale", {})
    if scale.get("deterministic") is False:
        regressions += 1
        print("::warning title=perf-smoke::low-diameter sharded scale run is "
              "NOT bit-identical to the serial engine")
    for cell in scale.get("cells", []):
        violations = cell.get("serial", {}).get("invariant_violations", 0)
        for sample in cell.get("sharded", []):
            violations += sample.get("invariant_violations", 0)
        if violations:
            regressions += 1
            print(f"::warning title=perf-smoke::low-diameter scale cell "
                  f"{cell.get('testbed', '?')} reported {violations} "
                  "invariant violation(s) under checked runs")

    # Route-scale smoke (PR 9): the switch-pair factorized store across the
    # topology ladder.  Table footprints are deterministic (byte counts, not
    # rates), so growth beyond the tolerance warns; build times are
    # informational.  Against a pre-factorization baseline (no route_scale
    # section) the instance-flat cells of lowdiameter_scale double as the
    # reference, and the factorization must show at least the 10x build and
    # footprint improvement it was introduced for.
    def scale_key(cell):
        return (cell.get("testbed"), cell.get("scheme"))

    fresh_scale = fresh_record.get("route_scale", {}).get("cells", [])
    base_scale = {scale_key(c): c
                  for c in baseline_record.get("route_scale", {})
                  .get("cells", [])}
    base_flat = {scale_key(c): c
                 for c in baseline_record.get("lowdiameter_scale", {})
                 .get("cells", [])}
    for cell in fresh_scale:
        label = f"{cell.get('testbed', '?')}/{cell.get('scheme', '?')}"
        bytes_now = cell.get("table_bytes", 0)
        print(f"  route-scale {label}: {bytes_now / 1024.0:.1f} KiB "
              f"(core {cell.get('core_bytes', 0) / 1024.0:.1f} KiB), "
              f"build {cell.get('build_ms', 0):.1f} ms, "
              f"compose {cell.get('compose_ns_avg', 0):.0f} ns")
        explicit = cell.get("explicit_table_bytes", 0)
        if explicit and bytes_now >= explicit:
            regressions += 1
            print(f"::warning title=perf-smoke::route-scale {label}: "
                  f"factorized table ({bytes_now} B) not smaller than the "
                  f"instance-flat tier ({explicit} B)")
        prior = base_scale.get(scale_key(cell))
        if prior and prior.get("table_bytes"):
            growth = bytes_now / prior["table_bytes"] - 1.0
            if growth > args.tolerance:
                regressions += 1
                print(f"::warning title=perf-smoke::route-scale {label} "
                      f"table grew {growth * 100.0:.1f}% "
                      f"({prior['table_bytes']} -> {bytes_now} B)")
        elif scale_key(cell) in base_flat:
            flat = base_flat[scale_key(cell)]
            shrink = flat.get("table_bytes", 0) / max(bytes_now, 1)
            speedup = flat.get("build_ms", 0.0) / max(
                cell.get("build_ms", 0.0), 1e-9)
            print(f"  route-scale {label} vs instance-flat baseline: "
                  f"{shrink:.1f}x smaller, {speedup:.1f}x faster build")
            if shrink < 10.0:
                regressions += 1
                print(f"::warning title=perf-smoke::route-scale {label} "
                      f"factorized table only {shrink:.1f}x smaller than "
                      "the instance-flat baseline (floor 10x)")
            if speedup < 10.0:
                regressions += 1
                print(f"::warning title=perf-smoke::route-scale {label} "
                      f"factorized build only {speedup:.1f}x faster than "
                      "the instance-flat baseline (floor 10x)")

    # Parallel-efficiency smoke: the workspace layer's headline number.
    base_eff = parallel_efficiency(baseline_record)
    fresh_eff = parallel_efficiency(fresh_record)
    if fresh_eff is not None:
        base_txt = f"{base_eff:.3f}" if base_eff is not None else "n/a"
        print(f"  parallel efficiency (per-worker, jobs=max / jobs=1): "
              f"{base_txt} -> {fresh_eff:.3f} (floor {EFFICIENCY_FLOOR})")
        if fresh_eff < EFFICIENCY_FLOOR:
            regressions += 1
            print(f"::warning title=perf-smoke::parallel efficiency "
                  f"{fresh_eff:.3f} below the {EFFICIENCY_FLOOR} floor")
        elif base_eff is not None and \
                fresh_eff < base_eff * (1.0 - args.tolerance):
            regressions += 1
            print(f"::warning title=perf-smoke::parallel efficiency dropped "
                  f"{(1.0 - fresh_eff / base_eff) * 100.0:.1f}% vs baseline "
                  f"({base_eff:.3f} -> {fresh_eff:.3f})")

    if regressions == 0:
        print("perf-smoke: no rate regressed beyond "
              f"{args.tolerance * 100.0:.0f}% of the committed baseline")
    else:
        print(f"perf-smoke: {regressions} rate(s) regressed beyond "
              f"{args.tolerance * 100.0:.0f}% (warning only, not a gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
