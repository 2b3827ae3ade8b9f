// up*/down* routing (Schroeder et al., Autonet; used by Myrinet).
//
// A breadth-first spanning tree is computed from a root switch and every
// switch-to-switch cable is oriented: its "up" end is (1) the endpoint
// closer to the root, or (2) the endpoint with the lower switch id when
// both are at the same tree level.  A legal route traverses zero or more
// cables in the "up" direction followed by zero or more in the "down"
// direction; this breaks every cycle (each cycle contains both an up-most
// switch and a down-most switch) and therefore every cyclic channel
// dependency, making the routing deadlock-free without virtual channels.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "route/switch_path.hpp"
#include "topo/topology.hpp"
#include "topo/types.hpp"

namespace itb {

/// Deterministic root choice for up*/down* on arbitrary topologies: a
/// double-sweep pseudo-center.  BFS from switch 0 finds a far switch u,
/// BFS from u finds the far pair endpoint v; the root is the switch
/// minimising max(dist_u, dist_v) — ties broken by higher switch degree,
/// then lower id.  On the paper's torus this is interior (roots at corners
/// concentrate "down" traffic); on dense low-diameter graphs most switches
/// tie and the low-id rule keeps the choice stable.  Purely a function of
/// the topology, so tables built from it stay reproducible.
[[nodiscard]] SwitchId select_updown_root(const Topology& topo);

/// Sentinel for Testbed and CLI layers: "pick the root for me" via
/// select_updown_root.
inline constexpr SwitchId kAutoRoot = -2;

class UpDown {
 public:
  /// Orients all switch-to-switch cables of `topo` from the given root.
  /// The topology's switch graph must be connected.
  explicit UpDown(const Topology& topo, SwitchId root = 0);

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] SwitchId root() const { return root_; }

  /// BFS tree level of a switch (root is 0).
  [[nodiscard]] int level(SwitchId s) const {
    return level_[static_cast<std::size_t>(s)];
  }

  /// The switch at the "up" end of a switch-to-switch cable.
  [[nodiscard]] SwitchId up_end(CableId c) const {
    return up_end_[static_cast<std::size_t>(c)];
  }

  /// True when crossing cable `c` out of switch `from` moves in the "up"
  /// direction (i.e. `from` is the down end).
  [[nodiscard]] bool is_up(CableId c, SwitchId from) const {
    return up_end_[static_cast<std::size_t>(c)] != from;
  }

  /// True when `path` obeys the up*/down* rule.
  [[nodiscard]] bool legal(const SwitchPath& path) const;

  /// Length of the shortest *legal* path from s to d (0 when s == d);
  /// -1 when unreachable, which cannot happen on a connected topology.
  [[nodiscard]] int legal_distance(SwitchId s, SwitchId d) const;

  /// Up to `max_paths` distinct shortest legal paths from s to d, in a
  /// deterministic (port-order) sequence.  For s == d returns the trivial
  /// single-switch path.  A wrapper over visit_shortest_legal_paths.
  [[nodiscard]] std::vector<SwitchPath> shortest_legal_paths(
      SwitchId s, SwitchId d, int max_paths) const;

  /// Caller-owned buffers for the walks below.  One scratch serves every
  /// destination of a source, and every source of a worker: buffers are
  /// overwritten, never shrunk, so a warm scratch allocates nothing.
  ///
  /// `pred` is the per-source predecessor DAG of the product graph, in CSR
  /// form: state t's list is pred[pred_off[t], pred_off[t + 1]).  It holds
  /// exactly the moves into t that lie on a shortest legal path from the
  /// source, in the order the walk takes them: t's switch-to-switch links
  /// in port order, and per link the predecessor in phase 0 before the one
  /// in phase 1.  An entry is (link index at t's switch) << 1 | the
  /// predecessor's phase, 2 bytes, since a link index fits a PortId.
  struct Scratch {
    std::vector<int> dist;                // 2*switch + phase (see below)
    std::vector<std::int32_t> queue;      // BFS states, each pushed once
    std::vector<std::uint32_t> pred_off;  // 2*switch + phase, + 1 -> pred
    std::vector<std::uint16_t> pred;
    std::vector<SwitchId> rev_switches;   // current path, destination first
    std::vector<CableId> rev_cables;
  };

  /// Fills `sc.dist` with the product-graph distances from `s` (see
  /// state_distances_from) and `sc.pred` with the predecessor DAG of
  /// every state: one BFS and one linear pass per source, shared by every
  /// destination's walk.
  void state_distances_from(SwitchId s, Scratch& sc) const;

  /// The walk behind shortest_legal_paths, with `sc` already filled from
  /// `s` by state_distances_from(s, sc) (for s != d).  It walks back from
  /// d over the predecessor lists, depth first, so it touches only moves
  /// that lie on a shortest legal path.  Calls visit(rev_switches,
  /// rev_cables) once per path in the same order as shortest_legal_paths,
  /// with the path reversed: rev_switches runs d..s and rev_cables[i] joins
  /// rev_switches[i + 1] to rev_switches[i].  The spans are only valid
  /// during the call.  Returns the number of paths visited.
  template <typename Visit>
  int visit_shortest_legal_paths(SwitchId s, SwitchId d, int max_paths,
                                 Scratch& sc, Visit&& visit) const;

  /// All shortest legal distances from `s` (index = destination switch).
  [[nodiscard]] std::vector<int> legal_distances_from(SwitchId s) const;

  /// BFS over the (switch, phase) product graph; phase 0 = may still go up,
  /// phase 1 = has gone down.  Returns 2*num_switches distances, indexed by
  /// 2*switch + phase.
  [[nodiscard]] std::vector<int> state_distances_from(SwitchId s) const;

 private:
  /// A switch-to-switch port of a switch, with the orientation of both
  /// crossings precomputed for the walks above.
  struct Link {
    SwitchId peer;
    CableId cable;
    bool up_out;  // this switch -> peer goes up
    bool up_in;   // peer -> this switch goes up
  };
  /// The switch-to-switch ports of `s`, in port order.
  [[nodiscard]] std::span<const Link> links(SwitchId s) const {
    const auto i = static_cast<std::size_t>(s);
    return {link_.data() + link_first_[i], link_.data() + link_first_[i + 1]};
  }
  /// The product-graph BFS alone: fills `sc.dist` and `sc.queue`.
  void bfs_states(SwitchId s, Scratch& sc) const;

  const Topology* topo_;
  SwitchId root_;
  std::vector<int> level_;        // per switch
  std::vector<SwitchId> up_end_;  // per cable; kNoSwitch for host cables
  std::vector<std::uint32_t> link_first_;  // per switch, + 1 -> link_
  std::vector<Link> link_;
};

template <typename Visit>
int UpDown::visit_shortest_legal_paths(SwitchId s, SwitchId d, int max_paths,
                                       Scratch& sc, Visit&& visit) const {
  if (max_paths <= 0) return 0;
  sc.rev_switches.assign(1, d);  // destination is the last switch of a path
  sc.rev_cables.clear();
  if (s == d) {
    visit(std::span<const SwitchId>(sc.rev_switches),
          std::span<const CableId>(sc.rev_cables));
    return 1;
  }
  const std::vector<int>& dist = sc.dist;
  const auto at = [&dist](std::int64_t state) {
    return dist[static_cast<std::size_t>(state)];
  };
  const int da = at(2 * d);
  const int db = at(2 * d + 1);
  if (da < 0 && db < 0) return 0;
  const int best = (da < 0) ? db : (db < 0 ? da : std::min(da, db));

  // Depth-first backward walk over the predecessor DAG, appending to the
  // reversed path in `sc` (paths are at most a few tens of hops).
  int found = 0;
  // rec(v, phase): dist[(v,phase)] steps remain back to (s, 0).
  auto rec = [&](auto&& self, SwitchId v, int phase) -> void {
    const auto t = static_cast<std::size_t>(2 * v + phase);
    if (dist[t] == 0) {
      assert(v == s && phase == 0);
      ++found;
      visit(std::span<const SwitchId>(sc.rev_switches),
            std::span<const CableId>(sc.rev_cables));
      return;
    }
    const std::span<const Link> lv = links(v);
    for (std::uint32_t i = sc.pred_off[t]; i < sc.pred_off[t + 1]; ++i) {
      if (found >= max_paths) return;
      const std::uint16_t code = sc.pred[i];
      const Link& l = lv[code >> 1];
      sc.rev_cables.push_back(l.cable);
      sc.rev_switches.push_back(l.peer);
      self(self, l.peer, code & 1);
      sc.rev_cables.pop_back();
      sc.rev_switches.pop_back();
    }
  };

  // A path's final phase is determined by its contents (pure-up paths end
  // in phase 0, everything else in phase 1), so the two start phases emit
  // disjoint path sets.
  for (int phase = 0; phase < 2 && found < max_paths; ++phase) {
    if (at(2 * d + phase) == best) rec(rec, d, phase);
  }
  return found;
}

}  // namespace itb
