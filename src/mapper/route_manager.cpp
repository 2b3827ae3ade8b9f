#include "mapper/route_manager.hpp"

namespace itb {

RouteManager::RouteManager(const ProbeInterface& probe,
                           std::uint64_t origin_signature)
    : probe_(&probe), origin_signature_(origin_signature) {
  map_ = std::make_unique<NetworkMap>(map_network(probe, origin_signature_));
  tb_.emplace(map_->topo);
}

MapDiff RouteManager::refresh() {
  auto next = std::make_unique<NetworkMap>(
      map_network(*probe_, origin_signature_));
  MapDiff diff = diff_maps(*map_, *next);
  map_ = std::move(next);
  if (!diff.empty()) {
    tb_.emplace(map_->topo);
    ++rebuilds_;
  }
  return diff;
}

}  // namespace itb
