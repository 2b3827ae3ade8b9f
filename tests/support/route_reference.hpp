// Reference route builder: the differential oracle for the route store.
//
// The production builders (core/route_builder.hpp) stage interned
// switch-pair rows and let the store compose in-transit hosts at lookup
// time.  This builder computes the same tables the slow, obvious way: every
// alternative is compiled into an owning Route with concrete ports, a
// chosen in-transit host and its alt tag, in a plain table indexed
// `s * S + d`.  Tests compare the two pair for pair with Route's defaulted
// ==, which covers legs, hosts, switch walk and tag.
//
// `compile_route` applies the same in-transit host mix as
// RouteSet::compose; the two must stay in lockstep (pinned by the
// RouteStoreDifferential tests).
//
// `factorize` turns a hand-built or deliberately corrupted Route table into
// a RouteSet through the public staging API, which is how fixtures reach
// the simulator, the verifier and the watchdogs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/route.hpp"
#include "core/route_builder.hpp"
#include "core/route_store.hpp"
#include "route/simple_routes.hpp"
#include "route/switch_path.hpp"
#include "route/updown.hpp"
#include "topo/topology.hpp"

namespace itb {

/// All alternatives of every ordered switch pair, indexed by pair_key.
using RouteTable = std::vector<std::vector<Route>>;

[[nodiscard]] inline std::size_t pair_key(int num_switches, SwitchId s,
                                          SwitchId d) {
  return static_cast<std::size_t>(s) * static_cast<std::size_t>(num_switches) +
         static_cast<std::size_t>(d);
}

/// Lowers a switch-level path (plus split points for ITB legs) into a Route
/// with concrete ports and in-transit host choices.  `alt_index` becomes
/// the route's alt tag and spreads in-transit hosts so that different
/// alternatives use different hosts of the same switch.
[[nodiscard]] Route compile_route(const Topology& topo, const SwitchPath& path,
                                  const std::vector<int>& split_points,
                                  int alt_index);

/// What build_updown_routes installs: the simple_routes path of every pair.
[[nodiscard]] RouteTable reference_updown_table(const Topology& topo,
                                                const SimpleRoutes& sr);

/// What build_itb_routes installs for one pair; `dist_to_d` holds the BFS
/// distances to `d` (Topology::switch_distances_from(d)).
[[nodiscard]] std::vector<Route> reference_itb_pair(
    const Topology& topo, const UpDown& ud, const ItbBuildOptions& opts,
    SwitchId s, SwitchId d, std::span<const int> dist_to_d);

/// What build_itb_routes installs, all pairs.
[[nodiscard]] RouteTable reference_itb_table(const Topology& topo,
                                             const UpDown& ud,
                                             const ItbBuildOptions& opts = {});

/// What build_minimal_routes installs (structured topologies only).
[[nodiscard]] RouteTable reference_minimal_table(const Topology& topo);

/// Every alternative of `rs`, materialized into owning Routes.
[[nodiscard]] RouteTable materialize_all(const RouteSet& rs);

/// Stages `table` (S * S pairs) into a factorized RouteSet.  Each route
/// keeps its legs' switch ports and its alt tag; intermediate legs' eject
/// ports and in-transit hosts are recomputed by composition, and the switch
/// walk is rederived from the ports.  Throws std::invalid_argument when an
/// intermediate leg's ports leave the switch graph, or when a staged route
/// does not compose back to its input (for example, an in-transit host the
/// composition mix would not choose).
/// Final-leg walks are not checked, so corrupt walks stay representable.
[[nodiscard]] RouteSet factorize(const Topology& topo, RoutingAlgorithm algo,
                                 const RouteTable& table);

}  // namespace itb
