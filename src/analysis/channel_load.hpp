// Static channel-load model and bottleneck throughput bound.
//
// For a routing table, a path-selection policy and a traffic pattern, the
// expected number of crossings of every directed channel per injected
// packet is a pure function of the tables.  The channel with the highest
// crossing rate bounds the achievable throughput: no schedule can push
// more than one flit per flit-time through it.  The bound ignores
// blocking, routing occupancy and flow control, so real (simulated)
// saturation lands well below it — but the *ordering* between schemes and
// the location of the bottleneck are faithful, which makes the model a
// cheap cross-check for the simulator (bench_analysis) and a design tool
// (where would more wires help?).
//
// Traffic is characterised empirically: the pattern is sampled with a
// seeded RNG, so any DestinationPattern works without bespoke math.
#pragma once

#include <cstdint>
#include <vector>

#include "core/path_policy.hpp"
#include "core/route_store.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"
#include "traffic/patterns.hpp"

namespace itb {

struct ChannelLoadModel {
  /// Expected crossings of each directed channel per injected packet
  /// (header overhead ignored; payload treated as the unit of traffic).
  std::vector<double> crossings_per_packet;

  /// Hottest channel and its expected crossings.
  ChannelId bottleneck = -1;
  double bottleneck_crossings = 0.0;

  /// Upper bound on aggregate accepted traffic, in flits/ns/switch, from
  /// the bottleneck channel's capacity (1 flit per flit-time).
  double throughput_bound = 0.0;

  /// Expected in-transit hosts per packet under the sampled traffic.
  double expected_itbs = 0.0;

  /// Expected switch-to-switch hops per packet.
  double expected_hops = 0.0;
};

/// Sample `samples` (source, destination) draws: sources uniform over
/// hosts, destinations from `pattern`; route alternatives chosen by
/// `policy` semantics (kSingle -> alternative 0, anything else -> uniform
/// over alternatives, the steady-state behaviour of RR/random selection).
[[nodiscard]] ChannelLoadModel compute_channel_load(
    const Topology& topo, const RouteSet& routes, PathPolicy policy,
    const DestinationPattern& pattern, std::uint64_t seed = 1,
    int samples = 200000,
    double channel_capacity_flits_per_ns = 0.16 /* 160 MB/s Myrinet */);

}  // namespace itb
