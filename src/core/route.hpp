// Runtime source-route representation.
//
// A Route is what a NIC's routing table stores for one alternative of one
// (source switch, destination switch) pair.  It is organised as *legs*:
// up*/down*-legal sub-routes separated by in-transit hosts.  A plain
// up*/down* route is a Route with exactly one leg and no in-transit hosts.
//
// Port semantics follow Myrinet source routing: the header carries one
// output-port byte per switch the packet will traverse; each switch strips
// the leading byte.  For intermediate (ITB) legs the last port leads to the
// chosen in-transit host and is stored here; for the final leg the delivery
// port depends on the destination *host*, so the NIC appends it when the
// packet is built.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/types.hpp"

namespace itb {

/// Which route computation populated a routing table.
enum class RoutingAlgorithm {
  kUpDown,   // original Myrinet: one simple_routes-selected up*/down* path
  kItb,      // minimal paths split into legal legs via in-transit buffers
  kMinimal,  // structured minimal route per pair (route/topo_minimal.hpp):
             // dimension-order (HyperX), l-g-l (Dragonfly), direct (mesh)
};

struct RouteLeg {
  /// Output port at each switch this leg traverses, in order.  For an
  /// intermediate leg the final entry is the port to `end_host`; for the
  /// final leg the delivery port is appended by the sender.
  std::vector<PortId> ports;

  /// In-transit host terminating this leg; kNoHost on the final leg.
  HostId end_host = kNoHost;

  /// Switch-to-switch cables crossed by this leg.
  int switch_hops = 0;

  bool operator==(const RouteLeg&) const = default;
};

struct Route {
  SwitchId src_switch = kNoSwitch;
  SwitchId dst_switch = kNoSwitch;
  std::vector<RouteLeg> legs;

  /// Full switch sequence of the underlying path (across all legs), kept
  /// for analysis and assertions; not used on the data path.
  std::vector<SwitchId> switches;

  int total_switch_hops = 0;

  /// Compile-time alternative index that seeds the in-transit host mix
  /// (RouteSet composes the host from it).  Part of the route's identity:
  /// the factorized store keeps it, so a Route round-trips exactly.
  std::uint16_t alt_tag = 0;

  [[nodiscard]] int num_itbs() const {
    return static_cast<int>(legs.size()) - 1;
  }

  bool operator==(const Route&) const = default;
};

}  // namespace itb
