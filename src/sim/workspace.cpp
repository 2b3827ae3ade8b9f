#include "sim/workspace.hpp"

namespace itb {

void SimWorkspace::prepare(EngineKind /*engine*/, const Topology& topo,
                           const RouteSet& routes, const MyrinetParams& params,
                           PathPolicy policy, std::uint64_t net_seed) {
  sim_.reset();
  if (net_) {
    net_->reset(topo, routes, params, policy, net_seed);
    metrics_->configure(topo.num_switches());
    ++reuses_;
  } else {
    net_.emplace(sim_, topo, routes, params, policy, net_seed);
    metrics_.emplace(topo.num_switches());
  }
}

TrafficGenerator& SimWorkspace::generator(const DestinationPattern& pattern,
                                          TrafficConfig cfg) {
  if (gen_) {
    gen_->reset(pattern, cfg);
  } else {
    gen_.emplace(sim_, *net_, pattern, cfg);
  }
  return *gen_;
}

SimWorkspace& this_thread_workspace() {
  thread_local SimWorkspace ws;
  return ws;
}

}  // namespace itb
