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
  tweak(cfg);
  const int reps = 3;
  RunResult best = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    if (r.events_per_sec > best.events_per_sec) best = std::move(r);
  }
  return best;
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
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
