// Per-worker simulation workspace: the component stack one thread needs to
// run simulation points (Simulator, Network, MetricsCollector,
// TrafficGenerator), RESET between points instead of reconstructed.
//
// Why: the parallel drivers used to construct and tear down the whole stack
// for every point.  Construction is hundreds of container allocations
// (channels, buffers, calendar buckets, packet storage), so replicated
// sweeps hammered the global allocator from every worker at once and
// per-worker throughput *fell* as jobs rose.  A workspace keeps all of that
// capacity alive: prepare() rewinds the arena, clears the queues, rewires
// the network in place, and the next point runs with zero steady-state heap
// allocations (see sim/arena.hpp).
//
// Determinism contract: a point run in a reused workspace is bit-identical
// to the same point run in a freshly constructed one — same RNG streams,
// same (time, seq) event order, same RunResult — plain and in checked
// mode.  Every component's reset() is written against that contract
// and test_workspace enforces it, including across different topologies in
// one workspace.  Host-side observability (workspace_reuses,
// heap_allocs_steady_state) legitimately differs and is excluded from
// same_simulated_metrics.
//
// Threading: a workspace belongs to ONE thread; this_thread_workspace()
// hands each worker its own thread_local instance, which survives across
// driver calls because the harness keeps its worker pools alive (see
// harness/pool.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "traffic/generator.hpp"

namespace itb {

class SimWorkspace {
 public:
  SimWorkspace() = default;
  SimWorkspace(const SimWorkspace&) = delete;
  SimWorkspace& operator=(const SimWorkspace&) = delete;

  /// Reset (or first-construct) the simulator, network and metrics
  /// collector for one simulation point.  After this call the stack is
  /// indistinguishable from freshly constructed objects: clock at zero,
  /// queues empty, ledgers clean, callbacks cleared.  `engine` must be
  /// kPod, its only value.
  void prepare(EngineKind engine, const Topology& topo, const RouteSet& routes,
               const MyrinetParams& params, PathPolicy policy,
               std::uint64_t net_seed);

  /// Reset (or first-construct) the traffic generator against the prepared
  /// network.  Call after prepare().
  TrafficGenerator& generator(const DestinationPattern& pattern,
                              TrafficConfig cfg);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Network& net() { return *net_; }
  [[nodiscard]] MetricsCollector& metrics() { return *metrics_; }

  /// Per-workspace trace buffer (src/obs/).  Owned here so traced runs
  /// honor the reuse contract: the tracer ring keeps its storage across
  /// points.  prepare() does NOT attach it — the harness does, only for
  /// runs that asked for tracing.
  [[nodiscard]] PacketTracer& tracer() { return tracer_; }

  /// How many prepare() calls reused existing storage instead of
  /// constructing it (0 through a fresh workspace's first point).
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }

 private:
  Simulator sim_;  // declared first: Network/generator hold its address
  std::optional<Network> net_;
  std::optional<MetricsCollector> metrics_;
  std::optional<TrafficGenerator> gen_;
  PacketTracer tracer_;
  std::uint64_t reuses_ = 0;
};

/// The calling thread's own workspace.  Worker threads are persistent, so
/// the instance — and all its warmed capacity — survives across driver
/// calls for the lifetime of the thread.
[[nodiscard]] SimWorkspace& this_thread_workspace();

}  // namespace itb
