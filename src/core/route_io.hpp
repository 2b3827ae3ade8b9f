// Human-readable export of routing tables.
//
// Myrinet administrators debug routing with dump tools; this mirrors
// that: one line per route with the switch sequence, the port bytes as a
// NIC would emit them, and the in-transit hosts.  Used by the CLI's
// --dump-routes and by tests to golden-check table construction.
#pragma once

#include <iosfwd>
#include <string>

#include "core/route.hpp"
#include "core/route_store.hpp"

namespace itb {

/// "s3->s2 hops=2 itbs=1 legs=[p1,p4 @h9 | p2] via 3-4-2"
[[nodiscard]] std::string format_route(const Route& r);

/// Dump every pair's alternatives (optionally only pairs whose first
/// alternative uses at least `min_itbs` in-transit hosts, to keep torus
/// dumps readable).
void dump_routes(std::ostream& os, const RouteSet& rs, int min_itbs = 0);

/// Summary line: route count, ITB usage histogram (0,1,2,3+).
[[nodiscard]] std::string summarize_route_set(const RouteSet& rs);

}  // namespace itb
