// Packet state carried through the network model.
#pragma once

#include <cstdint>

#include "core/route_store.hpp"
#include "sim/time.hpp"
#include "topo/types.hpp"

namespace itb {

struct Packet {
  std::uint64_t id = 0;
  HostId src = kNoHost;
  HostId dst = kNoHost;
  int payload_flits = 0;

  /// Route chosen at the source NIC and progress along it.  The view is a
  /// trivially copyable window into the owning RouteSet's flat store —
  /// two indexed loads per header byte, no pointer-chasing.
  RouteView route;
  int alt_index = 0;     // which alternative the path policy picked
  int current_leg = 0;   // index into route.legs
  int hop_in_leg = 0;    // header ports consumed within the current leg
  PortId delivery_port = kNoPort;  // port of the destination switch to dst

  /// Timestamps (picoseconds).
  TimePs gen_time = 0;      // message ready in source NIC memory
  TimePs inject_time = 0;   // first flit entered the source link
  TimePs deliver_time = 0;  // tail flit arrived at the destination NIC

  /// In-transit bookkeeping.  (Pool reservations are tracked per ejection
  /// entry inside the network model, not here: the packet may already be
  /// registered at the *next* in-transit host while the previous host is
  /// still draining its reservation.)
  int itbs_used = 0;
  bool spilled_to_host_memory = false;

  /// Wire length (flits) of the current leg as injected at the leg's start;
  /// shrinks by one per switch traversed (header byte stripped) and by one
  /// more at each in-transit host (ITB mark removed).
  int leg_wire_flits = 0;

  /// Output port the *next* switch visit must use; advances hop_in_leg.
  [[nodiscard]] PortId next_port() {
    const LegView leg = route.legs[static_cast<std::size_t>(current_leg)];
    const int consumed = hop_in_leg++;
    if (consumed < static_cast<int>(leg.ports.size())) {
      return leg.ports[static_cast<std::size_t>(consumed)];
    }
    // Final leg: the delivery port appended by the source NIC.
    return delivery_port;
  }

  [[nodiscard]] bool on_final_leg() const {
    return current_leg + 1 == static_cast<int>(route.legs.size());
  }
};

/// Largest message payload (bytes) the model accepts.  It is far above the
/// paper's 32-1024 B messages and keeps every wire length below, which adds
/// header, ITB mark and type bytes to the payload, well inside int.
inline constexpr int kMaxPayloadBytes = 1 << 24;

/// Wire length (flits) of leg `leg_index` at the moment it is (re)injected:
/// payload + type byte(s) + all remaining header port bytes + the remaining
/// ITB mark bytes.  The delivery port byte of the final leg is included.
[[nodiscard]] inline int leg_start_wire_flits(const RouteView& r,
                                              int leg_index, int payload_flits,
                                              int type_bytes) {
  int ports = 0;
  const int legs = static_cast<int>(r.legs.size());
  for (int l = leg_index; l < legs; ++l) {
    ports += static_cast<int>(r.legs[static_cast<std::size_t>(l)].ports.size());
    if (l == legs - 1) ports += 1;  // delivery port appended per packet
  }
  const int marks = legs - 1 - leg_index;
  return payload_flits + type_bytes + ports + marks;
}

}  // namespace itb
