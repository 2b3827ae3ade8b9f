// Ready-to-simulate bundle: a topology plus its up*/down* orientation and
// lazily built routing tables for every scheme the paper compares.
//
// Thread-safety: table construction is guarded by an internal mutex, so
// concurrent routes()/warm() calls from the parallel drivers are safe.
// Once built, a table is never modified and the returned reference stays
// valid for the Testbed's lifetime, so workers share it without locking.
// Call warm() before fanning out to pre-build tables off the hot path.
// The Testbed is the one cache of a network's tables: checked runs ask it
// for a table's verifier findings, which are computed once per table and
// kept beside it.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "check/invariants.hpp"
#include "core/path_policy.hpp"
#include "core/route_store.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "sim/pool.hpp"
#include "topo/topology.hpp"

namespace itb {

/// The routing schemes of the evaluation (§4.7) plus the future-work
/// extensions.
enum class RoutingScheme {
  kUpDown,    // "UP/DOWN": simple_routes-selected up*/down*, single path
  kItbSp,     // "ITB-SP": minimal paths + in-transit buffers, single path
  kItbRr,     // "ITB-RR": same table, round-robin over alternatives
  kItbRnd,    // extension: random alternative per packet
  kItbAdapt,  // extension: latency-feedback adaptive selection
  kMinimal,   // "MIN": structured minimal baseline (dimension-order /
              // l-g-l / direct); only on structured topologies
};

[[nodiscard]] const char* to_string(RoutingScheme s);
[[nodiscard]] PathPolicy policy_of(RoutingScheme s);

class Testbed {
 public:
  /// Takes ownership of the topology; `root` is the up*/down* root switch
  /// (the paper's torus uses the top-left switch, id 0).  Pass kAutoRoot
  /// (route/updown.hpp) to let select_updown_root pick a pseudo-center —
  /// the right default for the dense low-diameter topologies, where a
  /// corner root needlessly deepens the tree.
  explicit Testbed(Topology topo, SwitchId root = 0);

  // Movable (fresh mutex on the destination); moving is only safe before
  // the Testbed is shared with workers, like any other non-atomic handoff.
  Testbed(Testbed&& other) noexcept;
  Testbed& operator=(Testbed&& other) noexcept;
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] const Topology& topo() const { return *topo_; }
  [[nodiscard]] const UpDown& updown() const { return *updown_; }

  /// Routing table for a scheme (built on first use, then cached).  All ITB
  /// schemes share one table and differ only in path policy.  A cold call
  /// fans the build (the row staging, and for UP/DOWN the SimpleRoutes
  /// candidate enumeration) out across default_jobs() workers; when the caller
  /// is itself a pool worker the build runs inline on it instead
  /// (pooled_for is re-entrancy-guarded; see sim/pool.hpp), so the old
  /// cold-from-a-worker serial penalty is gone without risking a nested
  /// fan-out.
  [[nodiscard]] const RouteSet& routes(RoutingScheme s) const {
    return routes_with_jobs(s, default_jobs());
  }

  /// Pre-build the table for `s` (idempotent).  Parallel drivers warm the
  /// schemes they will run before fan-out so workers only ever read;
  /// because warm() runs on the main thread, it may fan the row build out
  /// across `jobs` workers (bit-identical to the serial build).
  void warm(RoutingScheme s, int jobs = 1) const {
    (void)routes_with_jobs(s, jobs);
  }

  /// Pre-build every table this topology supports: up*/down*, the shared
  /// ITB table, and — on structured topologies only — the MIN table.
  void warm_all(int jobs = 1) const;

  /// What verify_route_set finds wrong with `routes(s)` (empty when the
  /// table is legal).  The table is built if needed and verified once;
  /// checked runs record the list on every point.
  [[nodiscard]] const std::vector<InvariantViolation>& route_violations(
      RoutingScheme s) const;

 private:
  struct Table {
    std::optional<RouteSet> routes;
    std::optional<std::vector<InvariantViolation>> violations;
  };

  [[nodiscard]] const RouteSet& routes_with_jobs(RoutingScheme s,
                                                 int jobs) const;
  /// Builds the table on first use; the caller holds build_mu_.
  [[nodiscard]] Table& table_locked(RoutingScheme s, int jobs) const;

  std::unique_ptr<Topology> topo_;
  std::unique_ptr<UpDown> updown_;
  mutable std::mutex build_mu_;
  mutable Table updown_table_;
  mutable Table itb_table_;  // shared by all ITB schemes
  mutable Table minimal_table_;
};

}  // namespace itb
