#include "sim/workspace.hpp"

#include "sim/partition.hpp"

namespace itb {

void SimWorkspace::prepare(EngineKind engine, const Topology& topo,
                           const RouteSet& routes, const MyrinetParams& params,
                           PathPolicy policy, std::uint64_t net_seed,
                           int shards) {
  parallel_ = (engine == EngineKind::kPodParallel);
  sim_.reset();
  ParallelEngine* par = nullptr;
  if (parallel_) {
    // configure() keeps the worker threads (and each lane's warmed calendar
    // and arena) when the shard count is unchanged, so reused workspaces
    // stay allocation-free in parallel mode too.
    par_.configure(make_contiguous_plan(topo, params, shards));
    par = &par_;
  }
  if (net_) {
    net_->reset(topo, routes, params, policy, net_seed, par);
    metrics_->configure(topo.num_switches());
    ++reuses_;
  } else {
    net_.emplace(sim_, topo, routes, params, policy, net_seed);
    // The constructor wires the serial path; rebind to the lanes when this
    // first point is sharded.
    if (par != nullptr) {
      net_->reset(topo, routes, params, policy, net_seed, par);
    }
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
