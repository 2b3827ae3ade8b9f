// Microbenchmarks for the simulator substrate: calendar queue, RNG, routing
// table construction and end-to-end simulation rate.
//
// Two modes:
//  - default: the google-benchmark suite below.
//  - `--json FILE [--fast]`: the PR perf record.  Runs the engine-kernel
//    rate (POD events + calendar queue), an end-to-end run_point rate, and
//    the invariant-layer cost A/B (ledgers off / ledgers on / full checked
//    mode), then writes the `micro_kernel` section consumed by
//    tools/perf_check.py.  Run this binary first when regenerating
//    BENCH_*.json — it starts the file fresh; bench_parallel_scaling
//    merges its section afterwards.
//  - `--shard-ab-only [--fast]`: just the serial-vs-sharded engine A/B
//    with its determinism cross-check (the TSan CI lane's entry point).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "core/route_builder.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace itb;

void BM_CalendarQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<TimePs> times(n);
  for (auto& t : times) t = static_cast<TimePs>(rng.next_below(1'000'000));
  for (auto _ : state) {
    CalendarQueue q;
    for (const TimePs t : times) {
      q.push(t, EventKind::kCallback, 0, 0, nullptr);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().at);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CalendarQueuePushPop)->Arg(1024)->Arg(65536);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(512));
}
BENCHMARK(BM_RngNextBelow);

void BM_UpDownConstruction(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  for (auto _ : state) {
    UpDown ud(topo, 0);
    benchmark::DoNotOptimize(ud.root());
  }
}
BENCHMARK(BM_UpDownConstruction);

void BM_SimpleRoutesTorus(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  for (auto _ : state) {
    SimpleRoutes sr(topo, ud);
    benchmark::DoNotOptimize(sr.channel_weights().size());
  }
}
BENCHMARK(BM_SimpleRoutesTorus);

void BM_ItbRoutesTorus(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  for (auto _ : state) {
    RouteSet rs = build_itb_routes(topo, ud);
    benchmark::DoNotOptimize(rs.alternatives(0, 63).size());
  }
}
BENCHMARK(BM_ItbRoutesTorus);

void BM_SimulationEventRate(benchmark::State& state) {
  // End-to-end events/second at a moderate uniform load on the torus.
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  const RouteSet routes = build_itb_routes(topo, ud);
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    MyrinetParams params;
    Network net(sim, topo, routes, params, PathPolicy::kRoundRobin, 3);
    UniformPattern pattern(topo.num_hosts());
    TrafficConfig tc;
    tc.load_flits_per_ns_per_switch = 0.02;
    TrafficGenerator gen(sim, net, pattern, tc);
    gen.start();
    sim.run_until(us(100));
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulationEventRate)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode: the engine-kernel and end-to-end rates behind the committed
// BENCH_*.json perf record.
// ---------------------------------------------------------------------------

/// Steady-state churn shape of the kernel: hold `held` pending events, then
/// `ops` times pop the minimum, dispatch it, and push one replacement a
/// pseudo-random (precomputed, identical across runs) delay later — the
/// pop/push/dispatch mix of the simulation hot loop.
constexpr std::size_t kHeld = 1024;
constexpr std::size_t kDeltaMask = 8191;

std::vector<TimePs> make_deltas() {
  Rng rng(1234);
  std::vector<TimePs> deltas(kDeltaMask + 1);
  // Typical engine delays: chunk times ~50 ns, propagation ~50 ns, routing
  // 150 ns => a handful of calendar buckets at 1024 ps per bucket.
  for (auto& d : deltas) d = static_cast<TimePs>(rng.next_below(200'000));
  return deltas;
}

struct KernelCtx {
  std::uint64_t sink = 0;
  void dispatch(std::int32_t ch, std::int32_t a) {
    sink += static_cast<std::uint64_t>(ch) + static_cast<std::uint64_t>(a);
  }
};

double pod_kernel_ops_per_sec(std::uint64_t ops,
                              const std::vector<TimePs>& deltas) {
  CalendarQueue q;
  KernelCtx ctx;
  std::size_t d = 0;
  for (std::size_t i = 0; i < kHeld; ++i) {
    q.push(deltas[d++ & kDeltaMask], EventKind::kChunkSent,
           static_cast<std::int32_t>(i), 1, nullptr);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Event e = q.pop();
    // The network's dispatch switch, reduced to its shape.
    switch (e.kind) {
      case EventKind::kChunkSent:
      case EventKind::kChunkArrived:
      case EventKind::kGoArrived:
        ctx.dispatch(e.ch, e.a);
        break;
      default:
        ctx.dispatch(e.ch, -e.a);
        break;
    }
    const EventKind next = (i & 7) != 0U           ? EventKind::kChunkSent
                           : ((i & 15) != 0U)      ? EventKind::kChunkArrived
                                                   : EventKind::kGoArrived;
    q.push(e.at + deltas[d++ & kDeltaMask], next,
           static_cast<std::int32_t>(i & 1023), 2, nullptr);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(ctx.sink);
  return static_cast<double>(ops) / secs;
}

RunResult end_to_end_point(const Testbed& tb, const BenchOptions& opts) {
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = opts.fast ? us(40) : us(150);
  cfg.measure = opts.fast ? us(100) : us(400);
  // Best events/sec of 3 (the simulated outcome is deterministic; only the
  // wall clock varies) — the committed record's rates would otherwise carry
  // one run's scheduling luck.
  const int reps = 3;
  RunResult best = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > best.events_per_sec) best = std::move(r);
  }
  return best;
}

/// One end-to-end point for the invariant-layer cost A/B: the same workload
/// as end_to_end_point on the POD engine, with the always-on ledgers and the
/// deep checked mode toggled independently.  Best events/sec of `reps` runs
/// (the simulated outcome is deterministic; only the wall clock varies).
RunResult overhead_point(const Testbed& tb, const BenchOptions& opts,
                         bool ledgers, bool checked) {
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = opts.fast ? us(40) : us(150);
  cfg.measure = opts.fast ? us(100) : us(400);
  cfg.engine = EngineKind::kPod;
  cfg.params.ledger_checks = ledgers;
  cfg.checked = checked;
  const int reps = 3;
  RunResult best = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > best.events_per_sec) best = std::move(r);
  }
  return best;
}

/// Workspace reuse A/B: the same POD point run in fresh workspaces vs one
/// reused (warmed) workspace.  Bit-identity is the contract (enforced by
/// test_workspace; re-checked here); the reused run's
/// heap_allocs_steady_state dropping to zero is the arena layer's headline
/// property.  Best of `reps` for the rates, like overhead_point.
struct WorkspaceAb {
  RunResult fresh;
  RunResult reused;
  bool identical = false;
};

/// One end-to-end point for the telemetry cost A/B: the same POD workload
/// with one telemetry channel (tracing / sampling / profiling) switched on
/// by `tweak`.  Best of `reps` like overhead_point.
RunResult telemetry_point(const Testbed& tb, const BenchOptions& opts,
                          void (*tweak)(RunConfig&)) {
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = opts.fast ? us(40) : us(150);
  cfg.measure = opts.fast ? us(100) : us(400);
  cfg.engine = EngineKind::kPod;
  tweak(cfg);
  const int reps = 3;
  RunResult best = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > best.events_per_sec) best = std::move(r);
  }
  return best;
}

WorkspaceAb workspace_ab(const Testbed& tb, const BenchOptions& opts) {
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = opts.fast ? us(40) : us(150);
  cfg.measure = opts.fast ? us(100) : us(400);
  cfg.engine = EngineKind::kPod;
  const int reps = 3;
  WorkspaceAb ab;
  {
    SimWorkspace ws;  // never reused: every rep below gets its own
    ab.fresh = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
  }
  for (int i = 1; i < reps; ++i) {
    SimWorkspace ws;
    RunResult r = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > ab.fresh.events_per_sec) ab.fresh = std::move(r);
  }
  SimWorkspace warm;
  (void)run_point_in(warm, tb, RoutingScheme::kItbRr, pat, cfg);
  ab.reused = run_point_in(warm, tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point_in(warm, tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > ab.reused.events_per_sec) ab.reused = std::move(r);
  }
  ab.identical = same_simulated_metrics(ab.fresh, ab.reused);
  return ab;
}

/// Route-store A/B: legacy nested staging vs the compressed contiguous
/// store, on the 512-host torus the other sections use.  Records build
/// time (nested, flat serial, flat parallel), table memory, and the dedup
/// count; build times are best of `reps` (construction is deterministic,
/// only the wall clock varies).
struct RouteStoreAb {
  double nested_build_ms = 0.0;
  double flat_build_jobs1_ms = 0.0;
  double flat_build_jobsn_ms = 0.0;
  int parallel_jobs = 0;
  std::uint64_t nested_bytes = 0;
  std::uint64_t flat_bytes = 0;
  std::uint64_t segments_shared = 0;
  std::uint64_t num_routes = 0;
  bool parallel_identical = false;
};

RouteStoreAb route_store_ab(const Topology& topo, const UpDown& ud) {
  const int reps = 3;
  RouteStoreAb ab;
  ab.parallel_jobs = 8;

  auto best_ms = [&](auto&& build) {
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      build();
      const std::chrono::duration<double, std::milli> dt =
          std::chrono::steady_clock::now() - t0;
      if (i == 0 || dt.count() < best) best = dt.count();
    }
    return best;
  };

  const NestedRouteTable nested = build_itb_routes_nested(topo, ud);
  ab.nested_bytes = nested_table_bytes(nested);
  ab.nested_build_ms =
      best_ms([&] { (void)build_itb_routes_nested(topo, ud); });

  const RouteSet flat1 = build_itb_routes(topo, ud, {}, 1);
  ab.flat_bytes = flat1.table_bytes();
  ab.segments_shared = flat1.segments_shared();
  ab.num_routes = flat1.store().num_routes();
  ab.flat_build_jobs1_ms =
      best_ms([&] { (void)build_itb_routes(topo, ud, {}, 1); });
  ab.flat_build_jobsn_ms = best_ms(
      [&] { (void)build_itb_routes(topo, ud, {}, ab.parallel_jobs); });

  const RouteSet flatn = build_itb_routes(topo, ud, {}, ab.parallel_jobs);
  const auto same = [](auto a, auto b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
  };
  ab.parallel_identical =
      same(flat1.store().port_pool(), flatn.store().port_pool()) &&
      same(flat1.store().walks(), flatn.store().walks()) &&
      same(flat1.store().route_walks(), flatn.store().route_walks()) &&
      same(flat1.store().core_routes(), flatn.store().core_routes()) &&
      same(flat1.store().alt_routes(), flatn.store().alt_routes()) &&
      same(flat1.store().altlists(), flatn.store().altlists()) &&
      same(flat1.store().pair_altlist(), flatn.store().pair_altlist());
  return ab;
}

/// Serial-vs-sharded A/B: the same end-to-end point on the serial POD
/// engine and on the conservative window engine at K = 2/4/8 lanes.
/// Bit-identical simulated metrics is the contract (the differential suite
/// in tests/test_parallel_engine.cpp enforces it; re-checked here so the
/// perf record can't carry rates from diverged simulations).  Rates are
/// best of `reps`; on a single-core bench box the sharded rates sit below
/// serial — the record tracks them anyway so a multicore box shows the
/// speedup and a regression shows up as a ratio shift, not an absolute.
struct ShardAb {
  RunResult serial;
  std::vector<std::pair<int, RunResult>> sharded;  // {K, best run}
  bool identical = true;
};

ShardAb shard_ab(const Testbed& tb, const BenchOptions& opts) {
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = opts.fast ? us(40) : us(150);
  cfg.measure = opts.fast ? us(100) : us(400);
  cfg.engine = EngineKind::kPod;
  const int reps = 3;
  ShardAb ab;
  ab.serial = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > ab.serial.events_per_sec) ab.serial = std::move(r);
  }
  cfg.engine = EngineKind::kPodParallel;
  for (const int k : {2, 4, 8}) {
    cfg.shards = k;
    RunResult best = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    for (int i = 1; i < reps; ++i) {
      RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
      if (r.events_per_sec > best.events_per_sec) best = std::move(r);
    }
    // peak_event_queue_len is the one field legitimately different in a
    // sharded run (sum of per-lane peaks); normalize it like the tests do.
    RunResult cmp = best;
    cmp.peak_event_queue_len = ab.serial.peak_event_queue_len;
    if (!same_simulated_metrics(ab.serial, cmp) ||
        best.events != ab.serial.events) {
      ab.identical = false;
    }
    ab.sharded.emplace_back(k, std::move(best));
  }
  return ab;
}

void print_shard_ab(const ShardAb& ab) {
  std::printf("sharded engine (POD serial vs pod_parallel, best of 3):\n");
  std::printf("  serial  %8.2f Mev/s\n", ab.serial.events_per_sec / 1e6);
  for (const auto& [k, r] : ab.sharded) {
    std::printf("  K=%d     %8.2f Mev/s   speedup %.2fx   windows %llu   "
                "boundary %llu (ties %llu)\n",
                k, r.events_per_sec / 1e6,
                r.events_per_sec / ab.serial.events_per_sec,
                static_cast<unsigned long long>(r.windows_executed),
                static_cast<unsigned long long>(r.boundary_events),
                static_cast<unsigned long long>(r.boundary_ties));
  }
  std::printf("  bit-identical %s\n", ab.identical ? "yes" : "NO");
}

/// `--shard-ab-only`: just the serial-vs-sharded determinism/perf A/B, for
/// the TSan CI lane (the full --json record would re-run every section
/// under TSan's ~10x slowdown for no extra thread coverage).
int run_shard_ab_only(const BenchOptions& opts) {
  Testbed tb(make_torus_2d(8, 8, 8));
  tb.warm_all();
  const ShardAb ab = shard_ab(tb, opts);
  print_shard_ab(ab);
  if (!ab.identical) {
    std::printf("SHARD A/B MISMATCH: sharded run differs from serial\n");
    return 1;
  }
  return 0;
}

int run_json_mode(const BenchOptions& opts) {
  const std::vector<TimePs> deltas = make_deltas();
  const std::uint64_t ops = opts.fast ? 1'000'000 : 4'000'000;
  // Warm the kernel once, then measure (first touch pages the calendar
  // ring and the heap storage).
  (void)pod_kernel_ops_per_sec(ops / 10, deltas);
  const double pod_ops = pod_kernel_ops_per_sec(ops, deltas);

  Testbed tb(make_torus_2d(8, 8, 8));
  tb.warm_all();
  const RunResult pod_e2e = end_to_end_point(tb, opts);

  // Invariant-layer cost A/B (same POD workload): ledgers off, ledgers on
  // (the shipped default), and full checked mode (route verification +
  // deadlock watchdog).  The ledger delta is the always-on price and is
  // budgeted at <=5% (tests/docs cite the number recorded here).
  const RunResult ledger_off = overhead_point(tb, opts, false, false);
  const RunResult ledger_on = overhead_point(tb, opts, true, false);
  const RunResult checked_on = overhead_point(tb, opts, true, true);
  const double ledger_overhead =
      1.0 - ledger_on.events_per_sec / ledger_off.events_per_sec;
  const double checked_overhead =
      1.0 - checked_on.events_per_sec / ledger_off.events_per_sec;

  const WorkspaceAb ws_ab = workspace_ab(tb, opts);

  const RouteStoreAb rs_ab = route_store_ab(tb.topo(), tb.updown());

  const ShardAb sh_ab = shard_ab(tb, opts);

  // Telemetry cost A/B (same POD workload): the tracer/sampler/profiler
  // hooks are compiled into the hot path unconditionally and gated by null
  // pointers, so the disabled baseline IS the ledgers-on run above — the
  // end-to-end rate perf_check.py holds to the <=2% tracing-disabled
  // budget.  Each channel is then switched on in turn to record its
  // enabled cost.
  const RunResult& tele_off = ledger_on;
  const RunResult traced =
      telemetry_point(tb, opts, [](RunConfig& c) { c.trace = true; });
  const RunResult sampled = telemetry_point(tb, opts, [](RunConfig& c) {
    c.sample_period = c.measure / 20;
    c.sample_link_util = true;
  });
  const RunResult profiled =
      telemetry_point(tb, opts, [](RunConfig& c) { c.profile = true; });
  const double traced_overhead =
      1.0 - traced.events_per_sec / tele_off.events_per_sec;
  const double sampled_overhead =
      1.0 - sampled.events_per_sec / tele_off.events_per_sec;
  const double profiled_overhead =
      1.0 - profiled.events_per_sec / tele_off.events_per_sec;

  // Sharded telemetry A/B: tracing/profiling no longer fall back to
  // serial, so their cost under the parallel engine is a perf surface of
  // its own — per-lane rings + the keyed record path + the harvest merge.
  // The disabled sharded baseline is measured fresh (same tweak shape) so
  // the overhead fraction isolates telemetry, not sharding.
  const auto sharded_tweak = [](RunConfig& c) {
    c.engine = EngineKind::kPodParallel;
    c.shards = 4;
  };
  const RunResult sh_off = telemetry_point(tb, opts, sharded_tweak);
  const RunResult sh_traced = telemetry_point(tb, opts, [](RunConfig& c) {
    c.engine = EngineKind::kPodParallel;
    c.shards = 4;
    c.trace = true;
  });
  const RunResult sh_profiled = telemetry_point(tb, opts, [](RunConfig& c) {
    c.engine = EngineKind::kPodParallel;
    c.shards = 4;
    c.profile = true;
  });
  const double sh_traced_overhead =
      1.0 - sh_traced.events_per_sec / sh_off.events_per_sec;
  const double sh_profiled_overhead =
      1.0 - sh_profiled.events_per_sec / sh_off.events_per_sec;

  std::printf("engine kernel (%zu held, %llu ops):\n", kHeld,
              static_cast<unsigned long long>(ops));
  std::printf("  pod     %8.2f Mops/s\n", pod_ops / 1e6);
  std::printf("end-to-end run_point (torus, ITB-RR, uniform 0.02):\n");
  std::printf("  pod     %8.2f Mev/s   coalesced %llu\n",
              pod_e2e.events_per_sec / 1e6,
              static_cast<unsigned long long>(pod_e2e.events_coalesced));
  std::printf("invariant-layer cost (POD, best of 3):\n");
  std::printf("  ledgers off %8.2f Mev/s\n", ledger_off.events_per_sec / 1e6);
  std::printf("  ledgers on  %8.2f Mev/s   overhead %+.1f%%\n",
              ledger_on.events_per_sec / 1e6, ledger_overhead * 100.0);
  std::printf("  checked     %8.2f Mev/s   overhead %+.1f%%\n",
              checked_on.events_per_sec / 1e6, checked_overhead * 100.0);
  std::printf("telemetry cost (POD, best of 3; disabled == ledgers-on):\n");
  std::printf("  traced   %8.2f Mev/s   overhead %+.1f%%   records %llu\n",
              traced.events_per_sec / 1e6, traced_overhead * 100.0,
              static_cast<unsigned long long>(traced.trace_records));
  std::printf("  sampled  %8.2f Mev/s   overhead %+.1f%%   windows %zu\n",
              sampled.events_per_sec / 1e6, sampled_overhead * 100.0,
              sampled.samples.size());
  std::printf("  profiled %8.2f Mev/s   overhead %+.1f%%\n",
              profiled.events_per_sec / 1e6, profiled_overhead * 100.0);
  std::printf("telemetry cost sharded (pod_parallel K=%llu, best of 3):\n",
              static_cast<unsigned long long>(sh_off.shards));
  std::printf("  disabled %8.2f Mev/s\n", sh_off.events_per_sec / 1e6);
  std::printf("  traced   %8.2f Mev/s   overhead %+.1f%%   records %llu   "
              "barrier %.1f ms\n",
              sh_traced.events_per_sec / 1e6, sh_traced_overhead * 100.0,
              static_cast<unsigned long long>(sh_traced.trace_records),
              sh_traced.barrier_wait_ms);
  std::printf("  profiled %8.2f Mev/s   overhead %+.1f%%   imbalance %.2f\n",
              sh_profiled.events_per_sec / 1e6, sh_profiled_overhead * 100.0,
              sh_profiled.lane_imbalance);
  std::printf("route store (ITB table, 512-host torus, best of 3):\n");
  std::printf("  nested build %8.2f ms   %8.2f KiB\n", rs_ab.nested_build_ms,
              static_cast<double>(rs_ab.nested_bytes) / 1024.0);
  std::printf("  flat jobs=1  %8.2f ms   %8.2f KiB   shrink %.2fx   "
              "shared segs %llu\n",
              rs_ab.flat_build_jobs1_ms,
              static_cast<double>(rs_ab.flat_bytes) / 1024.0,
              static_cast<double>(rs_ab.nested_bytes) /
                  static_cast<double>(rs_ab.flat_bytes),
              static_cast<unsigned long long>(rs_ab.segments_shared));
  std::printf("  flat jobs=%d  %8.2f ms   build speedup %.2fx   "
              "bit-identical %s\n",
              rs_ab.parallel_jobs, rs_ab.flat_build_jobsn_ms,
              rs_ab.flat_build_jobs1_ms / rs_ab.flat_build_jobsn_ms,
              rs_ab.parallel_identical ? "yes" : "NO");
  print_shard_ab(sh_ab);
  std::printf("workspace reuse (POD, best of 3):\n");
  std::printf("  fresh   %8.2f Mev/s   run allocs %llu\n",
              ws_ab.fresh.events_per_sec / 1e6,
              static_cast<unsigned long long>(
                  ws_ab.fresh.heap_allocs_steady_state));
  std::printf("  reused  %8.2f Mev/s   run allocs %llu   speedup %.2fx   "
              "bit-identical %s\n",
              ws_ab.reused.events_per_sec / 1e6,
              static_cast<unsigned long long>(
                  ws_ab.reused.heap_allocs_steady_state),
              ws_ab.reused.events_per_sec / ws_ab.fresh.events_per_sec,
              ws_ab.identical ? "yes" : "NO");

  JsonWriter w;
  w.begin_object();
  w.key("engine_kernel").begin_object();
  w.key("held_events").value(static_cast<std::uint64_t>(kHeld));
  w.key("ops").value(ops);
  w.key("pod_ops_per_sec").value(pod_ops);
  w.end_object();
  w.key("end_to_end").begin_object();
  w.key("testbed").value("torus");
  w.key("scheme").value("ITB-RR");
  w.key("load").value(0.02);
  w.key("pod_events_per_sec").value(pod_e2e.events_per_sec);
  w.key("pod_events").value(pod_e2e.events);
  w.key("pod_events_coalesced").value(pod_e2e.events_coalesced);
  w.key("pod_peak_event_queue_len").value(pod_e2e.peak_event_queue_len);
  w.end_object();
  w.key("checked_overhead").begin_object();
  w.key("ledger_off_events_per_sec").value(ledger_off.events_per_sec);
  w.key("ledger_on_events_per_sec").value(ledger_on.events_per_sec);
  w.key("checked_events_per_sec").value(checked_on.events_per_sec);
  w.key("ledger_overhead_frac").value(ledger_overhead);
  w.key("checked_overhead_frac").value(checked_overhead);
  w.end_object();
  w.key("telemetry").begin_object();
  w.key("disabled_events_per_sec").value(tele_off.events_per_sec);
  w.key("traced_events_per_sec").value(traced.events_per_sec);
  w.key("sampled_events_per_sec").value(sampled.events_per_sec);
  w.key("profiled_events_per_sec").value(profiled.events_per_sec);
  w.key("traced_overhead_frac").value(traced_overhead);
  w.key("sampled_overhead_frac").value(sampled_overhead);
  w.key("profiled_overhead_frac").value(profiled_overhead);
  w.key("trace_records").value(traced.trace_records);
  w.key("trace_dropped").value(traced.trace_dropped);
  w.key("sample_windows")
      .value(static_cast<std::uint64_t>(sampled.samples.size()));
  w.key("sharded_shards").value(sh_off.shards);
  w.key("sharded_disabled_events_per_sec").value(sh_off.events_per_sec);
  w.key("sharded_traced_events_per_sec").value(sh_traced.events_per_sec);
  w.key("sharded_profiled_events_per_sec").value(sh_profiled.events_per_sec);
  w.key("sharded_traced_overhead_frac").value(sh_traced_overhead);
  w.key("sharded_profiled_overhead_frac").value(sh_profiled_overhead);
  w.key("sharded_trace_records").value(sh_traced.trace_records);
  w.key("sharded_barrier_wait_ms").value(sh_traced.barrier_wait_ms);
  w.key("sharded_lane_imbalance").value(sh_traced.lane_imbalance);
  w.end_object();
  w.key("route_store").begin_object();
  w.key("testbed").value("torus 8x8, 8 hosts/switch (512 hosts)");
  w.key("nested_build_ms").value(rs_ab.nested_build_ms);
  w.key("flat_build_jobs1_ms").value(rs_ab.flat_build_jobs1_ms);
  w.key("flat_build_jobs8_ms").value(rs_ab.flat_build_jobsn_ms);
  w.key("parallel_jobs").value(static_cast<std::uint64_t>(rs_ab.parallel_jobs));
  w.key("parallel_build_speedup")
      .value(rs_ab.flat_build_jobs1_ms / rs_ab.flat_build_jobsn_ms);
  w.key("nested_table_bytes").value(rs_ab.nested_bytes);
  w.key("flat_table_bytes").value(rs_ab.flat_bytes);
  w.key("table_shrink")
      .value(static_cast<double>(rs_ab.nested_bytes) /
             static_cast<double>(rs_ab.flat_bytes));
  w.key("segments_shared").value(rs_ab.segments_shared);
  w.key("num_routes").value(rs_ab.num_routes);
  w.key("parallel_bit_identical").value(rs_ab.parallel_identical);
  // The end_to_end section's pod rate IS the flat-store e2e number;
  // perf_check compares it against the nested-era baseline in BENCH_pr5.
  w.key("flat_e2e_events_per_sec").value(pod_e2e.events_per_sec);
  w.end_object();
  w.key("shard_ab").begin_object();
  w.key("serial_events_per_sec").value(sh_ab.serial.events_per_sec);
  w.key("shards").begin_array();
  for (const auto& [k, r] : sh_ab.sharded) {
    w.begin_object();
    w.key("shards").value(k);
    w.key("events_per_sec").value(r.events_per_sec);
    w.key("speedup").value(r.events_per_sec / sh_ab.serial.events_per_sec);
    w.key("window_ns").value(r.window_ns);
    w.key("windows_executed").value(r.windows_executed);
    w.key("boundary_events").value(r.boundary_events);
    w.key("boundary_ties").value(r.boundary_ties);
    w.end_object();
  }
  w.end_array();
  w.key("bit_identical").value(sh_ab.identical);
  w.end_object();
  w.key("workspace").begin_object();
  w.key("fresh_events_per_sec").value(ws_ab.fresh.events_per_sec);
  w.key("reused_events_per_sec").value(ws_ab.reused.events_per_sec);
  w.key("speedup").value(ws_ab.reused.events_per_sec /
                         ws_ab.fresh.events_per_sec);
  w.key("fresh_heap_allocs").value(ws_ab.fresh.heap_allocs_steady_state);
  w.key("reused_heap_allocs_steady_state")
      .value(ws_ab.reused.heap_allocs_steady_state);
  w.key("arena_bytes_peak").value(ws_ab.reused.arena_bytes_peak);
  w.key("bit_identical").value(ws_ab.identical);
  w.end_object();
  w.end_object();
  write_json_section(opts.json, "micro_kernel", w.str());
  std::printf("wrote micro_kernel section to %s\n", opts.json.c_str());

  // Flow control must hold on the measured run, or the rate above is
  // measuring a broken simulation.
  if (pod_e2e.fc_violations != 0) {
    std::printf("FLOW-CONTROL VIOLATION: end-to-end run overflowed a slack "
                "buffer\n");
    return 1;
  }
  // The ledgers are pure observers: toggling them must not change the
  // simulation, only its wall clock.  (The checked run adds watchdog
  // sampling events, so its event count is intentionally not compared.)
  if (!same_simulated_metrics(ledger_off, ledger_on) ||
      ledger_on.invariant_violations != 0 ||
      checked_on.invariant_violations != 0 ||
      checked_on.delivered != ledger_on.delivered ||
      checked_on.avg_latency_ns != ledger_on.avg_latency_ns) {
    std::printf("LEDGER A/B MISMATCH: invariant layer changed the results\n");
    return 1;
  }
  // Telemetry must be a pure observer: tracing, sampling (samples cleared
  // for the comparison — the baseline did not sample), and profiling all
  // leave every simulated metric bit-identical.
  RunResult sampled_cmp = sampled;
  sampled_cmp.samples.clear();
  if (!same_simulated_metrics(tele_off, traced) ||
      !same_simulated_metrics(tele_off, sampled_cmp) ||
      !same_simulated_metrics(tele_off, profiled)) {
    std::printf("TELEMETRY A/B MISMATCH: tracing/sampling/profiling changed "
                "the results\n");
    return 1;
  }
  // Workspace reuse must not change the simulation.
  if (!ws_ab.identical) {
    std::printf("WORKSPACE A/B MISMATCH: reused run differs from fresh\n");
    return 1;
  }
  // Sharding must not change the simulation either — the record's sharded
  // rates are only meaningful if they ran the identical simulation.
  if (!sh_ab.identical) {
    std::printf("SHARD A/B MISMATCH: sharded run differs from serial\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool shard_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shard-ab-only") == 0) {
      shard_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (shard_only) return run_shard_ab_only(itb::parse_bench_args(argc, argv));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_json_mode(itb::parse_bench_args(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
