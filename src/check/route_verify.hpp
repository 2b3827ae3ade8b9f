// Route-legality verifier: re-derives, from first principles, the properties
// the paper's routing tables must satisfy, and reports every deviation as a
// structured InvariantViolation.
//
// For every alternative of every (source switch, destination switch) pair:
//  * structure: the leg ports trace a real switch walk in the topology, the
//    recorded switch sequence/hop counts match, every intermediate leg ends
//    at a host attached to that leg's last switch;
//  * legality: each leg obeys the up*/down* rule (no "up" cable after a
//    "down" cable within a leg);
//  * splits: the leg boundaries are exactly itb_split_points() of the full
//    path — in-transit buffers sit at precisely the violating switches,
//    never anywhere else;
//  * minimality (ITB tables): the path length equals the unrestricted BFS
//    distance.  A pair may instead carry one legal non-minimal route — the
//    documented build_itb_routes fallback when every minimal path would
//    split at a host-less switch — accepted only when
//    `allow_legal_fallback` is set;
//  * table shape: 1..max_alternatives alternatives per pair, pairwise
//    distinct (by switch sequence and in-transit hosts).
//
// UP/DOWN tables are checked for structure + legality + zero ITBs; their
// paths are legal-shortest, not minimal, so minimality is skipped.
// Structured-minimal tables (RoutingAlgorithm::kMinimal) are checked for
// structure + minimality + zero ITBs + exactly one alternative; up*/down*
// legality is skipped by design — their routes are unrestricted.
#pragma once

#include <cstdint>

#include "check/invariants.hpp"
#include "core/route_store.hpp"
#include "route/updown.hpp"
#include "topo/topology.hpp"

namespace itb {

struct RouteVerifyOptions {
  /// Paper cap on alternatives per pair (§2: "up to 10 routes").
  int max_alternatives = 10;
  /// Accept the build_itb_routes legal-shortest fallback for pairs with no
  /// feasible minimal path.  Strict property tests turn this off.
  bool allow_legal_fallback = true;
};

struct RouteVerifyReport {
  std::uint64_t routes_checked = 0;
  std::uint64_t pairs_checked = 0;
  std::vector<InvariantViolation> violations;  // all kIllegalRoute
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Verify every installed route of `routes` against `topo`/`ud`.
/// Violations carry id = s * num_switches + d and a human-readable detail.
[[nodiscard]] RouteVerifyReport verify_route_set(
    const Topology& topo, const UpDown& ud, const RouteSet& routes,
    const RouteVerifyOptions& opts = {});

}  // namespace itb
