#include "harness/runner.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "check/watchdog.hpp"
#include "harness/result_fields.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "obs/samplers.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "traffic/generator.hpp"

namespace itb {

RunResult run_point(const Testbed& tb, RoutingScheme scheme,
                    const DestinationPattern& pattern, const RunConfig& cfg) {
  return run_point_in(this_thread_workspace(), tb, scheme, pattern, cfg);
}

RunResult run_point_in(SimWorkspace& ws, const Testbed& tb,
                       RoutingScheme scheme, const DestinationPattern& pattern,
                       const RunConfig& cfg) {
  if (cfg.measure <= 0) {
    throw std::invalid_argument(
        "run_point: the measurement window must be positive");
  }
  if (cfg.warmup < 0) {
    throw std::invalid_argument("run_point: the warm-up must not be negative");
  }
  if (cfg.measure >= kTimeNever - cfg.warmup) {
    throw std::invalid_argument(
        "run_point: warm-up plus measurement overflows the simulated clock");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const RouteSet& routes = tb.routes(scheme);
  ws.prepare(cfg.engine, tb.topo(), routes, cfg.params, policy_of(scheme),
             cfg.seed ^ 0x9e37u);
  Simulator& sim = ws.sim();
  Network& net = ws.net();
  MetricsCollector& metrics = ws.metrics();
  metrics.attach(net);

  // Telemetry attachments: the workspace owns the buffers (so their storage
  // survives reuse); the network only sees non-null pointers when this run
  // asked for them — disabled runs pay one untaken branch per hook.
  if (cfg.trace) {
    ws.tracer().configure(cfg.trace_capacity);
    net.set_tracer(&ws.tracer());
  }

  std::optional<DeadlockWatchdog> watchdog;
  if (cfg.checked) {
    // The whole table is verified once per Testbed; every checked point
    // reports what was found.
    for (const InvariantViolation& v : tb.route_violations(scheme)) {
      net.invariants().record(v.kind, v.time, v.id, v.detail);
    }
    watchdog.emplace(sim, net);
  }

  TrafficConfig tcfg;
  tcfg.load_flits_per_ns_per_switch = cfg.load_flits_per_ns_per_switch;
  tcfg.payload_bytes = cfg.payload_bytes;
  tcfg.poisson = cfg.poisson;
  tcfg.seed = cfg.seed;
  TrafficGenerator& gen = ws.generator(pattern, tcfg);
  gen.start();

  sim.run_until(cfg.warmup);
  metrics.reset_window(sim.now());
  net.reset_channel_stats();
  const std::uint64_t gen_before = gen.messages_generated();
  const std::uint64_t backlog_before = net.source_backlog_packets();

  const TimePs window_end = cfg.warmup + cfg.measure;
  TimeSeriesSampler sampler;
  if (cfg.sample_period > 0) {
    // Slice the window at sample boundaries.  run_until executes events
    // by their own timestamps and pins the clock to each boundary, so
    // the sliced run is event-for-event identical to the single
    // run_until below — sampling never perturbs the simulation.
    sampler.begin(sim.now(), sim, net, metrics);
    for (TimePs b = cfg.warmup; window_end - b > cfg.sample_period;) {
      b += cfg.sample_period;
      sim.run_until(b);
      sampler.sample(sim.now(), sim, net, metrics);
    }
    sim.run_until(window_end);
    sampler.sample(sim.now(), sim, net, metrics);
  } else {
    sim.run_until(window_end);
  }
  const TimePs window = sim.now() - cfg.warmup;

  RunResult r;
  r.samples = sampler.take();
  const double window_ns = to_ns(window);
  const auto switches = static_cast<double>(tb.topo().num_switches());
  const std::uint64_t gen_count = gen.messages_generated() - gen_before;
  r.offered = static_cast<double>(gen_count) *
              static_cast<double>(cfg.payload_bytes) / window_ns / switches;
  r.accepted = metrics.accepted_flits_per_ns_per_switch(sim.now());
  r.avg_latency_ns = metrics.avg_latency_ns();
  r.avg_latency_gen_ns = metrics.avg_latency_from_generation_ns();
  r.p50_latency_ns = metrics.p50_latency_ns();
  r.p99_latency_ns = metrics.p99_latency_ns();
  r.latency_ci95_ns = metrics.latency_ci95_ns();
  r.avg_itbs = metrics.avg_itbs_per_message();
  r.delivered = metrics.delivered();
  r.spills = net.itb_spills();
  r.fc_violations = net.flow_control_violations();
  r.max_buffer_occupancy = net.max_buffer_occupancy();

  const std::uint64_t backlog_after = net.source_backlog_packets();
  const bool backlog_grew =
      backlog_after > backlog_before &&
      (backlog_after - backlog_before) * 10 > metrics.delivered();
  r.saturated = (r.accepted < 0.95 * r.offered) || backlog_grew;

  if (cfg.collect_link_util) {
    r.link_util = measure_channel_utilization(net, window);
  }
  // The generator stops here; outstanding packets sit in the workspace
  // until the next prepare() discards them, which is fine for open-loop
  // measurement.
  gen.stop();
  if (watchdog) watchdog->disarm();

  // Harvest the invariant layer: end-of-window conservation audit (packets
  // are still in flight, so not quiescent), the simulator's causality
  // ledger, then everything the ledgers/checkers recorded during the run.
  net.audit_invariants(/*quiescent=*/false);
  const std::uint64_t causality = sim.causality_violations();
  if (causality > 0) {
    net.invariants().record(
        InvariantKind::kCausality, sim.now(),
        static_cast<std::int64_t>(causality),
        std::to_string(causality) +
            " event(s) executed before the simulator clock");
  }
  r.checked = cfg.checked;
  r.invariant_violations = net.invariants().total();
  r.violations = net.invariants().violations();

  r.events = sim.events_executed();
  r.peak_event_queue_len = sim.peak_queue_len();
  r.events_coalesced = net.chunk_events_coalesced();
  r.queue_far_pops = sim.queue_far_pops();
  r.route_table_bytes = routes.table_bytes();
  r.route_build_ms = routes.build_ms();
  r.route_segments_shared = routes.segments_shared();
  r.route_core_pairs = routes.num_pairs();
  r.route_core_bytes = routes.core_bytes();
  r.workspace_reuses = ws.reuses();
  r.arena_bytes_peak = net.arena_bytes_peak();
  r.heap_allocs_steady_state = net.heap_allocs_this_run();
  if (cfg.trace) {
    r.trace_records = ws.tracer().recorded();
    r.trace_dropped = ws.tracer().dropped();
    r.trace = ws.tracer().snapshot();
    net.set_tracer(nullptr);
  }
  const auto wall = std::chrono::steady_clock::now() - wall_start;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(wall).count();
  r.events_per_sec =
      r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0.0;
  return r;
}

bool same_simulated_metrics(const RunResult& a, const RunResult& b) {
  if (a.link_util.size() != b.link_util.size()) return false;
  for (std::size_t i = 0; i < a.link_util.size(); ++i) {
    const ChannelUtil& u = a.link_util[i];
    const ChannelUtil& v = b.link_util[i];
    if (u.channel != v.channel || u.cable != v.cable ||
        u.to_host != v.to_host || u.from_sw != v.from_sw ||
        u.to_sw != v.to_sw || u.utilization != v.utilization ||
        u.stopped_fraction != v.stopped_fraction) {
      return false;
    }
  }
  // Windowed samples are simulated-deterministic, so two sampled runs must
  // match bit-for-bit (a sampled vs. unsampled pair differs in size and is
  // legitimately unequal — clear one side's samples to compare the rest).
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const TimeSeriesSample& s = a.samples[i];
    const TimeSeriesSample& t = b.samples[i];
    if (s.t_start != t.t_start || s.t_end != t.t_end ||
        s.delivered != t.delivered ||
        s.accepted_flits_per_ns_per_switch !=
            t.accepted_flits_per_ns_per_switch ||
        s.avg_latency_ns != t.avg_latency_ns || s.events != t.events ||
        s.queue_len != t.queue_len || s.itb_pool_frac != t.itb_pool_frac ||
        s.link_util != t.link_util || s.itb_pool != t.itb_pool) {
      return false;
    }
  }
  // Scalars come from the registry: every kSimulated field participates,
  // kHost fields (wall clock, allocation and trace bookkeeping) never do.
  for (const ResultField& f : result_fields()) {
    if (f.cls != FieldClass::kSimulated) continue;
    if (f.get(a) != f.get(b)) return false;
  }
  return true;
}

}  // namespace itb
