// Enumeration of minimal (shortest, unrestricted) paths over the switch
// graph.  The ITB mechanism starts from these and splits them into
// up*/down*-legal segments; the paper caps the number of alternative routes
// per source-destination pair at 10 to bound NIC table size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "route/switch_path.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Up to `max_paths` distinct minimal paths from s to d in deterministic
/// DFS sequence.  s == d yields the trivial path.
///
/// `port_rotation` rotates the per-switch port visiting order; the DFS
/// therefore *starts* from a different direction for different rotations
/// while still enumerating the same set.  Route construction passes a
/// per-pair hash here so that "the first minimal path" — the one ITB-SP
/// pins — is spread across directions instead of systematically
/// preferring low-numbered ports (which would starve express channels
/// and overload +x rings).
[[nodiscard]] std::vector<SwitchPath> enumerate_minimal_paths(
    const Topology& topo, SwitchId s, SwitchId d, int max_paths,
    unsigned port_rotation = 0);

/// Same enumeration, but with the BFS distances *to d* supplied by the
/// caller (`dist_to_d[u]` = hop distance from u to d; the graph is
/// undirected, so Topology::switch_distances_from(d) serves), so that a
/// caller walking many sources toward one destination BFSes once — the BFS
/// dwarfs the DFS on dense low-diameter graphs.  The emitted paths and
/// their order are identical to the overload above.
[[nodiscard]] std::vector<SwitchPath> enumerate_minimal_paths(
    const Topology& topo, SwitchId s, SwitchId d, int max_paths,
    unsigned port_rotation, std::span<const int> dist_to_d);

/// Count of minimal paths from s to d, saturating at `cap` (the DFS stops
/// once `cap` paths are found).
[[nodiscard]] int count_minimal_paths(const Topology& topo, SwitchId s,
                                      SwitchId d, int cap);

/// Flat per-switch adjacency snapshot: entries [off[u], off[u+1]) list the
/// (peer switch, cable, output port) triples of switch u's fabric ports in
/// port order — the same iteration order as topo.switch_ports_of(u), so a
/// DFS over the cache enumerates paths in exactly the same sequence as
/// enumerate_minimal_paths.  Built once per table build; replaces the
/// per-visit switch_ports_of() vector allocation that dominated the PR 8
/// large-scale build profile.
struct SwitchAdjacency {
  struct Edge {
    SwitchId sw;
    CableId cable;
    PortId port;
  };

  explicit SwitchAdjacency(const Topology& topo);

  [[nodiscard]] std::span<const Edge> of(SwitchId u) const {
    const auto b = off[static_cast<std::size_t>(u)];
    return {edges.data() + b, off[static_cast<std::size_t>(u) + 1] - b};
  }

  std::vector<std::uint32_t> off;  // num_switches + 1
  std::vector<Edge> edges;
};

/// Reusable DFS state for for_each_minimal_path_dag; sized on first use,
/// alloc-free afterwards.
struct MinimalPathScratch {
  std::vector<SwitchId> sw;
  std::vector<CableId> cable;
  std::vector<PortId> port;
  std::vector<std::size_t> pi;
  std::vector<std::size_t> start;  // pruned-DAG DFS: cyclic scan origin

  void ensure(int depth_max) {
    const auto need = static_cast<std::size_t>(depth_max) + 1;
    if (sw.size() < need) {
      sw.resize(need);
      cable.resize(need);
      port.resize(need);
      pi.resize(need);
      start.resize(need);
    }
  }
};

/// Per-destination pruned DAG: for each switch u, the subset of its fabric
/// edges that step toward a fixed destination d (dist[e.sw] == dist[u] - 1),
/// in port order, each remembering its index in the full port list.  Built
/// once per destination and shared by every source's DFS, this removes all
/// distance lookups from the enumeration inner loop — the dominant cost of
/// large-table builds.
struct PrunedDag {
  struct Edge {
    SwitchId sw;
    CableId cable;
    PortId port;
    std::uint16_t base;  // index in the full port-order edge list
  };

  /// Rebuilds for destination d, BFS included (distances from d are
  /// distances to d: the graph is undirected); buffers are reused.
  void build(const SwitchAdjacency& adj, SwitchId d) {
    const auto uz = [](std::int64_t v) { return static_cast<std::size_t>(v); };
    const std::size_t n = adj.off.size() - 1;
    dist.assign(n, -1);
    dist[uz(d)] = 0;
    queue.assign(1, d);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const SwitchAdjacency::Edge& e : adj.of(queue[head])) {
        if (dist[uz(e.sw)] != -1) continue;
        dist[uz(e.sw)] = dist[uz(queue[head])] + 1;
        queue.push_back(e.sw);
      }
    }
    off.assign(n + 1, 0);
    edges.clear();
    full_deg.clear();
    for (std::size_t u = 0; u < n; ++u) {
      const std::span<const SwitchAdjacency::Edge> full =
          adj.of(static_cast<SwitchId>(u));
      const int want = dist[u] - 1;
      for (std::size_t k = 0; k < full.size(); ++k) {
        const SwitchAdjacency::Edge& e = full[k];
        if (dist[uz(e.sw)] != want) continue;
        edges.push_back(
            Edge{e.sw, e.cable, e.port, static_cast<std::uint16_t>(k)});
      }
      off[u + 1] = static_cast<std::uint32_t>(edges.size());
      full_deg.push_back(static_cast<std::uint16_t>(full.size()));
    }
  }

  [[nodiscard]] std::span<const Edge> of(SwitchId u) const {
    const auto b = off[static_cast<std::size_t>(u)];
    return {edges.data() + b, off[static_cast<std::size_t>(u) + 1] - b};
  }

  std::vector<std::uint32_t> off;
  std::vector<Edge> edges;
  std::vector<std::uint16_t> full_deg;  // full fabric-port count per switch
  std::vector<int> dist;                // hop distance to d, -1: unreachable
  std::vector<SwitchId> queue;          // BFS order
};

/// Allocation-free minimal-path enumeration over a pruned DAG: emits each
/// minimal path as `emit(sw, cable, port, hops)` — `sw` has hops+1
/// entries, `cable`/`port` have `hops` (the output port of sw[i] crossing
/// cable[i]) — and returns the number emitted.  The spans point into
/// `sc` and are only valid for the duration of the callback.
///
/// It emits the same paths in the same order as enumerate_minimal_paths,
/// the oracle of the test reference builder (tests/support), but every
/// feasibility decision was precomputed by PrunedDag::build, so the inner
/// loop touches only edges that lie on some minimal path.  Order
/// equivalence: enumerate_minimal_paths scans the full port list starting
/// at offset `rotation % deg` and skips infeasible edges, which visits the
/// feasible sub-list cyclically starting at its first entry whose
/// full-list index is >= the offset.  That cyclic scan is what this DFS
/// performs directly.
template <typename Emit>
int for_each_minimal_path_dag(const PrunedDag& dag, SwitchId s, SwitchId d,
                              int max_paths, unsigned rotation,
                              MinimalPathScratch& sc, Emit&& emit) {
  if (max_paths <= 0) return 0;
  const auto uz = [](std::int64_t v) { return static_cast<std::size_t>(v); };
  if (s == d) {
    sc.ensure(0);
    sc.sw[0] = s;
    emit(sc.sw.data(), sc.cable.data(), sc.port.data(), 0);
    return 1;
  }
  if (dag.dist[uz(s)] < 0) return 0;
  sc.ensure(dag.dist[uz(s)]);

  // Where the cyclic scan of u's feasible list starts for this rotation.
  const auto scan_start = [&](SwitchId u,
                              std::span<const PrunedDag::Edge> list) {
    const std::uint16_t deg = dag.full_deg[uz(u)];
    const std::uint16_t r =
        deg ? static_cast<std::uint16_t>(rotation % deg) : 0;
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].base >= r) return j;
    }
    return std::size_t{0};  // wrap: every entry precedes the offset
  };

  int found = 0;
  int depth = 0;
  sc.sw[0] = s;
  sc.pi[0] = 0;
  sc.start[0] = scan_start(s, dag.of(s));
  while (depth >= 0) {
    const SwitchId u = sc.sw[uz(depth)];
    if (u == d) {
      emit(sc.sw.data(), sc.cable.data(), sc.port.data(), depth);
      if (++found >= max_paths) break;
      --depth;
      continue;
    }
    const std::span<const PrunedDag::Edge> list = dag.of(u);
    if (sc.pi[uz(depth)] < list.size()) {
      const std::size_t k =
          (sc.start[uz(depth)] + sc.pi[uz(depth)]++) % list.size();
      const PrunedDag::Edge& e = list[k];
      sc.cable[uz(depth)] = e.cable;
      sc.port[uz(depth)] = e.port;
      sc.sw[uz(depth) + 1] = e.sw;
      ++depth;
      sc.pi[uz(depth)] = 0;
      sc.start[uz(depth)] = scan_start(e.sw, dag.of(e.sw));
    } else {
      --depth;
    }
  }
  return found;
}

}  // namespace itb
