// Single simulation point: prepare a per-thread workspace, warm it up,
// measure a window, and return the paper's metrics.
//
// Thread-safety: run_point keeps every piece of mutable state (Simulator,
// Network, RNGs, collectors) in the calling thread's own SimWorkspace and
// only reads the shared Testbed/pattern, so independent points may run
// concurrently — the contract the parallel drivers in replicate.hpp /
// sweep.hpp rely on.  The workspace is RESET between points, not
// reconstructed; a reused run is bit-identical to a fresh one (see
// sim/workspace.hpp, enforced by test_workspace).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "check/invariants.hpp"
#include "harness/testbed.hpp"
#include "metrics/link_util.hpp"
#include "net/params.hpp"
#include "obs/samplers.hpp"
#include "obs/trace.hpp"
#include "sim/event.hpp"
#include "traffic/patterns.hpp"

namespace itb {

/// True in ITB_CHECKED builds: RunConfig::checked defaults on and the
/// Network hot path carries deep per-event assertions.
[[nodiscard]] consteval bool checked_build() {
#ifdef ITB_CHECKED
  return true;
#else
  return false;
#endif
}

struct RunConfig {
  double load_flits_per_ns_per_switch = 0.01;
  int payload_bytes = 512;
  TimePs warmup = us(200);   // >= 0; run_point throws otherwise
  TimePs measure = us(600);  // > 0; run_point throws otherwise
  std::uint64_t seed = 42;
  MyrinetParams params;
  bool poisson = false;
  /// Also collect per-channel utilization over the measurement window.
  bool collect_link_util = false;
  /// Event engine for this point; kPod is the only value.
  EngineKind engine = EngineKind::kPod;
  /// Checked-simulation mode: verify the scheme's routing table (legality,
  /// minimality, split placement) before the run and sample a wait-graph
  /// deadlock watchdog during it.  Honoured in every build; the
  /// ITB_CHECKED build flips this default to true so an entire suite or
  /// grid runs checked.  The watchdog's sampling callbacks add events, so
  /// `events`-bearing results are only comparable at equal `checked`.
  bool checked = checked_build();

  // --- telemetry (src/obs/; all default-off, see docs/OBSERVABILITY.md).
  // None of these perturb the simulation: a traced/sampled run is
  // bit-identical in every simulated metric to a plain one.

  /// Record the packet-lifecycle trace into the workspace's ring buffer
  /// and snapshot it into RunResult::trace.
  bool trace = false;
  /// Ring capacity in records when tracing; the ring keeps the most recent
  /// records and counts overwrites in RunResult::trace_dropped.
  std::size_t trace_capacity = std::size_t{1} << 16;
  /// Simulated-time width of one time-series window; 0 disables sampling.
  /// The measurement window is sliced at these boundaries (identical event
  /// sequence — run_until executes events by their own timestamps).
  /// Each window's sample also holds per-channel busy fractions and
  /// per-host ITB-pool occupancy (the congestion heatmap's two axes; see
  /// write_heatmap_csv in obs/samplers.hpp).
  TimePs sample_period = 0;
};

struct RunResult {
  double offered = 0.0;        // generated payload flits/ns/switch (window)
  double accepted = 0.0;       // delivered payload flits/ns/switch (window)
  double avg_latency_ns = 0.0; // injection -> delivery (paper definition)
  double avg_latency_gen_ns = 0.0;  // generation -> delivery
  double p50_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  /// ~95% batch-means confidence half-width on avg_latency_ns.
  double latency_ci95_ns = 0.0;
  double avg_itbs = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t spills = 0;
  std::uint64_t fc_violations = 0;
  int max_buffer_occupancy = 0;
  bool saturated = false;
  std::vector<ChannelUtil> link_util;  // when collect_link_util

  /// Invariant layer: total violations seen by the always-on ledgers, the
  /// end-of-window audit, the causality ledger, and (when cfg.checked) the
  /// route verifier and deadlock watchdog.  Zero on every healthy run; the
  /// checked grid asserts exactly that.  `violations` carries the first
  /// InvariantRecorder::kMaxStored records with details.
  std::uint64_t invariant_violations = 0;
  std::vector<InvariantViolation> violations;
  bool checked = false;  // deep checks ran for this point

  // Engine observability.  events / peak_event_queue_len / events_coalesced
  // are deterministic for a fixed engine (and compared as such); wall_ms and
  // events_per_sec are host-side and excluded from determinism comparisons.
  double wall_ms = 0.0;
  std::uint64_t events = 0;      // simulator events executed by this point
  double events_per_sec = 0.0;
  std::uint64_t peak_event_queue_len = 0;  // pending-event high-water mark
  std::uint64_t events_coalesced = 0;      // chunk arrivals elided (POD)
  // Events the event queue served from the heap rather than a lane
  // (host-side: a property of the queue, not of the simulation).
  std::uint64_t queue_far_pops = 0;

  // Allocation observability (host-side, excluded from determinism
  // comparisons: a reused workspace legitimately reports different values
  // than a fresh one for the same simulated point).
  std::uint64_t workspace_reuses = 0;   // prior points run in this workspace
  std::uint64_t arena_bytes_peak = 0;   // transient-arena high-water (bytes)
  // Heap allocations the engine performed during this point (arena blocks +
  // packet-storage growth).  Zero once a reused workspace has warmed to the
  // workload's high-water mark — the arena layer's headline property.
  std::uint64_t heap_allocs_steady_state = 0;

  // Telemetry (cfg.trace / cfg.sample_period; empty/zero when off).
  // trace_records/trace_dropped are classed host-side in the field
  // registry: the counts themselves replay deterministically, but they
  // differ between a traced and an untraced run of the same point, and
  // same_simulated_metrics must hold across exactly that pair.
  std::uint64_t trace_records = 0;  // observed, including overwritten
  std::uint64_t trace_dropped = 0;  // overwritten by ring wrap

  // Route-store observability (host-side like trace_records: the table
  // this point ran against is a property of the store implementation and
  // of who built it first, never of the simulated outcome).
  std::uint64_t route_table_bytes = 0;     // flat-store footprint
  double route_build_ms = 0.0;             // wall-clock table build time
  std::uint64_t route_segments_shared = 0; // dedup'd leg port sequences
  std::uint64_t route_core_pairs = 0;      // switch pairs the core indexes
  std::uint64_t route_core_bytes = 0;      // S^2 core (excl. compose tables)
  std::vector<PacketTraceRecord> trace;   // chronological ring snapshot
  /// Windowed time series (simulated-deterministic, compared by
  /// same_simulated_metrics when both runs sampled).
  std::vector<TimeSeriesSample> samples;
};

class SimWorkspace;

/// Run one (testbed, scheme, pattern, load) point in the calling thread's
/// workspace (this_thread_workspace()).
[[nodiscard]] RunResult run_point(const Testbed& tb, RoutingScheme scheme,
                                  const DestinationPattern& pattern,
                                  const RunConfig& cfg);

/// Run one point in an explicit workspace — the primitive behind run_point,
/// exposed so tests can pit fresh and reused workspaces against each other.
[[nodiscard]] RunResult run_point_in(SimWorkspace& ws, const Testbed& tb,
                                     RoutingScheme scheme,
                                     const DestinationPattern& pattern,
                                     const RunConfig& cfg);

/// True when every simulated metric of `a` and `b` is bit-identical.
/// Wall-clock fields (wall_ms, events_per_sec) are ignored — they vary
/// between runs by construction.  This is the determinism predicate the
/// workspace-reuse and worker-count tests assert.
[[nodiscard]] bool same_simulated_metrics(const RunResult& a,
                                          const RunResult& b);

}  // namespace itb
