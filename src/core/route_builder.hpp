// Construction of the routing tables the schemes run on.
//
// Every builder stages switch-pair rows straight into the factorized store
// (core/route_store.hpp) without materializing a Route.  Rows are
// independent, so with `jobs` > 1 the staging fans out across the shared
// thread pool (sim/pool.hpp); the merge then consumes rows strictly in
// order, making the result bit-identical to the serial build.  The
// differential oracle for these builders is the reference builder under
// tests/support/, which compiles owning Routes the slow, obvious way.
#pragma once

#include "core/route_store.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "topo/topology.hpp"

namespace itb {

struct ItbBuildOptions {
  /// Paper: at most 10 alternative routes per source-destination pair.
  int max_alternatives = 10;
};

/// UP/DOWN baseline: one simple_routes-selected legal path per pair,
/// single-leg routes (no in-transit hosts).  `jobs` > 1 stages rows in
/// parallel; the result is bit-identical for every jobs value.
[[nodiscard]] RouteSet build_updown_routes(const Topology& topo,
                                           const SimpleRoutes& sr,
                                           int jobs = 1);

/// ITB table: up to `max_alternatives` *minimal* paths per pair, each split
/// into legal legs with in-transit hosts at the violating switches.
/// Alternatives keep the enumeration order: a depth-first walk of the
/// minimal-step DAG whose direction order is rotated per pair, so
/// alternative 0 — the one ITB-SP always uses — spreads across directions
/// network-wide and may itself need in-transit hosts (the paper measures
/// 0.43 of them per ITB-SP message).  A minimal path whose required split
/// switch has no attached host is discarded; if every candidate is
/// discarded the pair falls back to one shortest legal (up*/down*) route so
/// connectivity is never lost.  `jobs` as in build_updown_routes.
[[nodiscard]] RouteSet build_itb_routes(const Topology& topo,
                                        const UpDown& ud,
                                        ItbBuildOptions opts = {},
                                        int jobs = 1);

/// Structured-minimal baseline (route/topo_minimal.hpp): the canonical
/// minimal route per pair — dimension-order on HyperX, l-g-l on Dragonfly,
/// direct on full mesh — as single-leg routes with no in-transit hosts.
/// Requires a structured topology (has_structured_minimal); throws
/// std::invalid_argument otherwise.  `jobs` as in build_updown_routes.
[[nodiscard]] RouteSet build_minimal_routes(const Topology& topo,
                                            int jobs = 1);

}  // namespace itb
