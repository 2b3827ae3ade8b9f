// Routing tables at switch-pair granularity.
//
// Myrinet NICs hold per-destination route lists; because every host on a
// switch shares the same switch-level paths, the table is stored per
// ordered (source switch, destination switch) pair and the delivery port is
// appended per packet.  The paper caps alternatives at 10 per pair to keep
// NIC look-up cheap; the same cap is the default here.
//
// A RouteSet wraps the factorized store (core/route_store.hpp) that the
// route builders (core/route_builder.hpp) produce.  It is immutable after
// construction; lookups compose lightweight views, and `materialize()`
// inflates one alternative into an owning Route for tests and IO.
#pragma once

#include <utility>

#include "core/route.hpp"
#include "core/route_store.hpp"
#include "topo/topology.hpp"

namespace itb {

class RouteSet {
 public:
  /// Wrap a built store.
  RouteSet(int num_switches, RoutingAlgorithm algo, RouteStore store)
      : num_switches_(num_switches), algo_(algo), store_(std::move(store)) {}

  [[nodiscard]] RoutingAlgorithm algorithm() const { return algo_; }
  [[nodiscard]] int num_switches() const { return num_switches_; }

  [[nodiscard]] AltsView alternatives(SwitchId s, SwitchId d) const {
    return store_.pair(key(s, d));
  }

  [[nodiscard]] RouteView view(SwitchId s, SwitchId d, int alt) const {
    return alternatives(s, d)[static_cast<std::size_t>(alt)];
  }

  /// Owning copy of one alternative (tests / IO).
  [[nodiscard]] Route materialize(SwitchId s, SwitchId d, int alt) const {
    return materialize_route(view(s, d, alt));
  }

  [[nodiscard]] const RouteStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t table_bytes() const {
    return store_.table_bytes();
  }
  [[nodiscard]] std::uint64_t segments_shared() const {
    return store_.segments_shared();
  }
  [[nodiscard]] double build_ms() const { return store_.build_ms(); }
  void set_build_ms(double ms) { store_.set_build_ms(ms); }

 private:
  [[nodiscard]] std::size_t key(SwitchId s, SwitchId d) const {
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(num_switches_) +
           static_cast<std::size_t>(d);
  }

  int num_switches_;
  RoutingAlgorithm algo_;
  RouteStore store_;
};

}  // namespace itb
