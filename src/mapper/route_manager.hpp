// Control-plane glue: keep routing tables in sync with the discovered
// topology.
//
// A RouteManager owns the current NetworkMap and a Testbed over its
// topology, whose routing tables are built lazily.  `refresh()` re-runs the
// mapper and, when anything changed, replaces the Testbed — the Myrinet
// workflow where every NIC rebuilds routes after the mapper announces a
// new map.  Hosts are addressed by signature so callers survive
// renumbering across remaps.
#pragma once

#include <memory>
#include <optional>

#include "core/route_store.hpp"
#include "harness/testbed.hpp"
#include "mapper/mapper.hpp"
#include "route/updown.hpp"

namespace itb {

class RouteManager {
 public:
  /// Performs the initial mapping; throws if the local switch is dead.
  RouteManager(const ProbeInterface& probe, std::uint64_t origin_signature);

  [[nodiscard]] const NetworkMap& map() const { return *map_; }

  /// Re-map and report what changed; routing tables are rebuilt on next
  /// access if the diff is non-empty.
  MapDiff refresh();

  /// Number of times the tables were invalidated by a refresh.
  [[nodiscard]] int rebuilds() const { return rebuilds_; }

  /// Routing tables over the *discovered* topology (discovery ids).
  [[nodiscard]] const RouteSet& updown_routes() {
    return tb_->routes(RoutingScheme::kUpDown);
  }
  [[nodiscard]] const RouteSet& itb_routes() {
    return tb_->routes(RoutingScheme::kItbSp);
  }
  [[nodiscard]] const UpDown& updown() { return tb_->updown(); }

  /// Stable addressing across remaps.
  [[nodiscard]] std::optional<HostId> host_by_signature(
      std::uint64_t sig) const {
    return map_->host_by_signature(sig);
  }

 private:
  const ProbeInterface* probe_;
  std::uint64_t origin_signature_;
  std::unique_ptr<NetworkMap> map_;
  std::optional<Testbed> tb_;  // over a copy of map_->topo, root switch 0
  int rebuilds_ = 0;
};

}  // namespace itb
