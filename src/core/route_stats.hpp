// Static route-set analysis backing the figures-in-prose of §4.7.1:
// percentage of minimal paths, average distance, and in-transit counts.
#pragma once

#include "core/route_store.hpp"
#include "topo/topology.hpp"

namespace itb {

struct RouteSetStats {
  /// Average switch-to-switch hop count of alternative 0, over ordered
  /// switch pairs with s != d (the paper's "average distance": 4.57 for
  /// up*/down* vs 4.06 minimal on the 8x8 torus).
  double avg_hops_sp = 0.0;

  /// Same, averaged over *all* alternatives of every pair.
  double avg_hops_all = 0.0;

  /// Fraction of pairs (s != d) whose alternative-0 route is minimal
  /// (paper: 80% for up*/down* on the torus, 94% with express channels,
  /// 100% on CPLANT; always 1.0 for ITB tables by construction).
  double minimal_fraction_sp = 0.0;

  /// Average in-transit hosts per route: alternative 0 only, and across
  /// all alternatives (paper: 0.43 for ITB-SP, 0.54 for ITB-RR usage).
  double avg_itbs_sp = 0.0;
  double avg_itbs_all = 0.0;

  /// Average number of stored alternatives per pair (<= the 10-route cap).
  double avg_alternatives = 0.0;
};

[[nodiscard]] RouteSetStats analyze_routes(const Topology& topo,
                                           const RouteSet& rs);

}  // namespace itb
