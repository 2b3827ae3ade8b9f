#include "core/route_builder.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "route/minimal_paths.hpp"
#include "route/topo_minimal.hpp"
#include "sim/pool.hpp"

namespace itb {

namespace {

std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

// ---------------------------------------------------------------------------
// Factorized staging: the builders stage switch-pair rows directly into
// the factorized block format (core/route_store.hpp) — no Route is
// ever materialized, no per-route temporaries are allocated.  Scratch
// buffers are reused across every source a task stages.

struct StageScratch {
  std::vector<PortId> ports;
  std::vector<int> splits;
  std::vector<std::uint32_t> walk_ids;
  std::vector<std::uint32_t> route_ids;
  MinimalPathScratch path;
  PrunedDag dag;
};

/// Output port of `p.sw[i]` for cable `p.cable[i]`.
PortId out_port(const Topology& topo, const SwitchPath& p, std::size_t i) {
  const Cable& cb = topo.cable(p.cable[i]);
  return cb.a.sw == p.sw[i] ? cb.a.port : cb.b.port;
}

void path_ports(const Topology& topo, const SwitchPath& p,
                std::vector<PortId>& out) {
  out.clear();
  for (std::size_t i = 0; i < p.cable.size(); ++i) {
    out.push_back(out_port(topo, p, i));
  }
}

/// Stages one route given its full port walk and ITB split indices;
/// returns the block-local route id.
std::uint32_t stage_ported_route(FactorizedBlockStager& st,
                                 const PortId* ports, int hops,
                                 const int* splits, std::size_t n_splits,
                                 std::uint16_t tag, StageScratch& sc) {
  sc.walk_ids.clear();
  int prev = 0;
  for (std::size_t i = 0; i < n_splits; ++i) {
    const int sp = splits[i];
    sc.walk_ids.push_back(st.stage_walk(ports + prev, idx(sp - prev)));
    prev = sp;
  }
  sc.walk_ids.push_back(st.stage_walk(ports + prev, idx(hops - prev)));
  return st.stage_route(sc.walk_ids.data(), sc.walk_ids.size(), tag);
}

void stage_updown_row(const Topology& topo, const SimpleRoutes& sr,
                      SwitchId s, FactorizedBlockStager& st,
                      StageScratch& sc) {
  for (SwitchId d = 0; d < topo.num_switches(); ++d) {
    // Channel 2c leaves cable c at its a end, 2c + 1 at its b end.
    sc.ports.clear();
    for (const ChannelId ch : sr.route_channels(s, d)) {
      const Cable& cb = topo.cable(ch / 2);
      sc.ports.push_back(ch % 2 == 0 ? cb.a.port : cb.b.port);
    }
    const std::uint32_t rid = stage_ported_route(
        st, sc.ports.data(), static_cast<int>(sc.ports.size()), nullptr, 0, 0,
        sc);
    st.commit_pair(&rid, 1);
  }
}

void stage_minimal_row(const Topology& topo, const StructuredMinimal& sm,
                       SwitchId s, FactorizedBlockStager& st,
                       StageScratch& sc) {
  for (SwitchId d = 0; d < topo.num_switches(); ++d) {
    const SwitchPath p = sm.path(s, d);
    path_ports(topo, p, sc.ports);
    const std::uint32_t rid =
        stage_ported_route(st, sc.ports.data(), p.hops(), nullptr, 0, 0, sc);
    st.commit_pair(&rid, 1);
  }
}

/// Stages the column of one *destination*: all sources, in source order.
/// Iterating destination-major lets the BFS distances to the destination
/// and the pruned minimal-step DAG derived from them be built once per
/// destination and shared by every source's DFS — the enumeration inner
/// loop then touches only edges known to lie on a minimal path.  Per-pair
/// values (rotation, split scan, host-feasibility, tags) are untouched, so
/// the emitted routes are identical to a source-major build; only the pair
/// stream order — and hence intern-id assignment — changes, canonically.
void stage_itb_dest_row(const Topology& topo, const UpDown& ud,
                        const ItbBuildOptions& opts,
                        const std::vector<std::uint32_t>& host_count,
                        SwitchId d, FactorizedBlockStager& st,
                        StageScratch& sc) {
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    sc.route_ids.clear();
    const auto rotation = static_cast<unsigned>(
        (static_cast<std::uint64_t>(s) * 0x9e3779b9u +
         static_cast<std::uint64_t>(d) * 0x85ebca6bu) >>
        16);
    for_each_minimal_path_dag(
        sc.dag, s, d, opts.max_alternatives, rotation, sc.path,
        [&](const SwitchId* sw, const CableId* cable, const PortId* port,
            int hops) {
          // itb_split_points over the scratch spans, allocation-free.
          sc.splits.clear();
          bool gone_down = false;
          for (int i = 0; i < hops; ++i) {
            const bool up = ud.is_up(cable[idx(i)], sw[idx(i)]);
            if (up && gone_down) {
              sc.splits.push_back(i);
              gone_down = false;
            }
            if (!up) gone_down = true;
          }
          for (const int sp : sc.splits) {
            if (host_count[idx(sw[idx(sp)])] == 0) return;
          }
          const auto tag = static_cast<std::uint16_t>(sc.route_ids.size());
          sc.route_ids.push_back(stage_ported_route(
              st, port, hops, sc.splits.data(), sc.splits.size(), tag, sc));
        });
    if (sc.route_ids.empty()) {
      const auto legal = ud.shortest_legal_paths(s, d, 1);
      if (legal.empty()) {
        throw std::runtime_error("build_itb_routes: pair unreachable");
      }
      path_ports(topo, legal.front(), sc.ports);
      sc.route_ids.push_back(stage_ported_route(
          st, sc.ports.data(), legal.front().hops(), nullptr, 0, 0, sc));
    }
    st.commit_pair(sc.route_ids.data(), sc.route_ids.size());
  }
}

/// Stage blocks of rows (in parallel when jobs > 1) and merge them in row
/// order.  A "row" is one source switch for the UP/DOWN and MIN builders
/// and one *destination* for the ITB builder (pair_transposed = true; the
/// store builder transposes the pair index back).  Global intern ids are
/// assigned in first-appearance order over the canonical row-major pair
/// stream, which is independent of how rows are blocked across workers —
/// the store is bit-identical for every jobs value.
template <typename StageRow>
RouteSet build_factorized(const Topology& topo, RoutingAlgorithm algo,
                          int jobs, bool pair_transposed,
                          StageRow&& stage_row) {
  const int n = topo.num_switches();
  FactorizedStoreBuilder b(topo);
  b.set_pair_transposed(pair_transposed);
  if (jobs <= 1) {
    // Serial: one block, one stager, one scratch — cleared (capacity
    // retained) between rows.
    FactorizedBlock block;
    FactorizedBlockStager stager;
    StageScratch sc;
    for (SwitchId r = 0; r < n; ++r) {
      stager.begin_block(&block);
      stage_row(stager, sc, r);
      b.append_block(block);
    }
  } else {
    // Chunked fan-out: a few blocks per worker keeps per-task overhead
    // bounded while the ordered serial merge stays O(distinct shapes).
    // The merge runs while later blocks stage: the worker that hands in
    // the next block in line merges it, and every block after it that is
    // already waiting, under merge_mu, and frees each as it goes.  Only
    // blocks staged ahead of the merge are ever held, not all of them.
    // On a pool worker the blocks run inline, in order (nested pooled_for
    // calls do; see sim/pool.hpp), so any jobs value is safe there.
    const int chunk = std::max(1, (n + jobs * 4 - 1) / (jobs * 4));
    const int num_blocks = (n + chunk - 1) / chunk;
    std::vector<std::optional<FactorizedBlock>> staged(idx(num_blocks));
    std::mutex merge_mu;
    std::size_t next = 0;  // first block not yet merged; under merge_mu
    parallel_for_n(num_blocks, jobs, [&](int bi) {
      FactorizedBlock block;
      FactorizedBlockStager stager;
      StageScratch sc;
      stager.begin_block(&block);
      const int r0 = bi * chunk;
      const int r1 = std::min(n, r0 + chunk);
      for (SwitchId r = r0; r < r1; ++r) stage_row(stager, sc, r);
      const std::lock_guard<std::mutex> lock(merge_mu);
      staged[idx(bi)].emplace(std::move(block));
      for (; next < staged.size() && staged[next]; ++next) {
        b.append_block(*staged[next]);
        staged[next].reset();
      }
    });
  }
  return b.finish(algo);
}

std::vector<std::uint32_t> hosts_per_switch(const Topology& topo) {
  std::vector<std::uint32_t> count(idx(topo.num_switches()), 0);
  for (HostId h = 0; h < topo.num_hosts(); ++h) {
    ++count[idx(topo.host(h).sw)];
  }
  return count;
}

}  // namespace

RouteSet build_updown_routes(const Topology& topo, const SimpleRoutes& sr,
                             int jobs) {
  return build_factorized(
      topo, RoutingAlgorithm::kUpDown, jobs, /*pair_transposed=*/false,
      [&](FactorizedBlockStager& st, StageScratch& sc, SwitchId s) {
        stage_updown_row(topo, sr, s, st, sc);
      });
}

RouteSet build_itb_routes(const Topology& topo, const UpDown& ud,
                          ItbBuildOptions opts, int jobs) {
  const SwitchAdjacency adj(topo);
  const std::vector<std::uint32_t> host_count = hosts_per_switch(topo);
  return build_factorized(
      topo, RoutingAlgorithm::kItb, jobs, /*pair_transposed=*/true,
      [&](FactorizedBlockStager& st, StageScratch& sc, SwitchId d) {
        sc.dag.build(adj, d);  // rebuilt in place per destination
        stage_itb_dest_row(topo, ud, opts, host_count, d, st, sc);
      });
}

RouteSet build_minimal_routes(const Topology& topo, int jobs) {
  const StructuredMinimal sm(topo);
  return build_factorized(
      topo, RoutingAlgorithm::kMinimal, jobs, /*pair_transposed=*/false,
      [&](FactorizedBlockStager& st, StageScratch& sc, SwitchId s) {
        stage_minimal_row(topo, sm, s, st, sc);
      });
}

}  // namespace itb
