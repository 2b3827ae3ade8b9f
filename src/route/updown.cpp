#include "route/updown.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }
}  // namespace

SwitchId select_updown_root(const Topology& topo) {
  const auto far_from = [&](SwitchId start) {
    const auto dist = topo.switch_distances_from(start);
    SwitchId far = start;
    for (SwitchId s = 0; s < topo.num_switches(); ++s) {
      if (dist[idx(s)] > dist[idx(far)]) far = s;  // first max wins (low id)
    }
    return far;
  };
  const SwitchId u = far_from(0);
  const SwitchId v = far_from(u);
  const auto du = topo.switch_distances_from(u);
  const auto dv = topo.switch_distances_from(v);
  SwitchId best = 0;
  int best_ecc = -1;
  int best_deg = -1;
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    const int ecc = std::max(du[idx(s)], dv[idx(s)]);
    const int deg = topo.switch_degree(s);
    if (best_ecc < 0 || ecc < best_ecc ||
        (ecc == best_ecc && deg > best_deg)) {
      best = s;
      best_ecc = ecc;
      best_deg = deg;
    }
  }
  return best;
}

UpDown::UpDown(const Topology& topo, SwitchId root)
    : topo_(&topo), root_(root) {
  level_ = topo.switch_distances_from(root);
  for (const int l : level_) {
    if (l < 0) {
      throw std::invalid_argument("UpDown: switch graph is not connected");
    }
  }
  up_end_.assign(idx(topo.num_cables()), kNoSwitch);
  for (CableId c = 0; c < topo.num_cables(); ++c) {
    const Cable& cb = topo.cable(c);
    if (cb.to_host()) continue;
    const SwitchId a = cb.a.sw;
    const SwitchId b = cb.b.sw;
    const int la = level_[idx(a)];
    const int lb = level_[idx(b)];
    // "Up" end: closer to the root; ties broken by the lower switch id.
    if (la != lb) {
      up_end_[idx(c)] = la < lb ? a : b;
    } else {
      up_end_[idx(c)] = a < b ? a : b;
    }
  }
  // A predecessor entry holds a link index in 15 bits (Scratch::pred).
  static_assert(sizeof(PortId) <= sizeof(std::uint16_t) &&
                std::is_signed_v<PortId>);
  link_first_.reserve(idx(topo.num_switches()) + 1);
  link_first_.push_back(0);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    for (PortId p = 0; p < topo.ports_per_switch(); ++p) {
      const PortPeer& e = topo.peer(s, p);
      if (e.kind != PeerKind::kSwitch) continue;
      link_.push_back({e.sw, e.cable, is_up(e.cable, s), is_up(e.cable, e.sw)});
    }
    link_first_.push_back(static_cast<std::uint32_t>(link_.size()));
  }
}

bool UpDown::legal(const SwitchPath& path) const {
  bool gone_down = false;
  for (std::size_t i = 0; i < path.cable.size(); ++i) {
    const bool up = is_up(path.cable[i], path.sw[i]);
    if (up && gone_down) return false;
    if (!up) gone_down = true;
  }
  return true;
}

void UpDown::bfs_states(SwitchId s, Scratch& sc) const {
  // State encoding: 2*switch + phase; phase 0 = no down cable taken yet,
  // phase 1 = at least one down cable taken (up cables now forbidden).
  // Each state is pushed at most once, so a plain vector with a read
  // cursor is the whole queue.
  const auto n = idx(topo_->num_switches());
  std::vector<int>& dist = sc.dist;
  std::vector<std::int32_t>& q = sc.queue;
  dist.assign(2 * n, -1);
  q.clear();
  dist[idx(2 * s)] = 0;
  q.push_back(2 * s);
  for (std::size_t head = 0; head < q.size(); ++head) {
    const std::int32_t state = q[head];
    const SwitchId u = state / 2;
    const int phase = state % 2;
    for (const Link& l : links(u)) {
      const bool up = l.up_out;
      if (phase == 1 && up) continue;  // down->up transition forbidden
      const std::int32_t next = 2 * l.peer + (up ? phase : 1);
      if (dist[idx(next)] == -1) {
        dist[idx(next)] = dist[idx(state)] + 1;
        q.push_back(next);
      }
    }
  }
}

void UpDown::state_distances_from(SwitchId s, Scratch& sc) const {
  bfs_states(s, sc);
  // Predecessor lists: the moves into each state from a state one step
  // closer to the source.  (u,0) --up--> (v,0); (u,0) or (u,1) --down-->
  // (v,1).  The walk's visiting order is the entry order below.
  const std::vector<int>& dist = sc.dist;
  const auto n = idx(topo_->num_switches());
  sc.pred_off.assign(2 * n + 1, 0);
  sc.pred.clear();
  // A state has at most one entry per up link and two per down link into
  // it, so the lists never outgrow 2 * link_.size().  Reserving that once
  // per scratch keeps the list from growing in steps inside a pool
  // worker's heap, where the freed steps stayed resident.
  sc.pred.reserve(2 * link_.size());
  for (std::size_t t = 0; t < 2 * n; ++t) {
    const int want = dist[t] - 1;
    if (want >= 0) {
      const std::span<const Link> lv = links(static_cast<SwitchId>(t / 2));
      const bool phase1 = t % 2 == 1;
      for (std::size_t i = 0; i < lv.size(); ++i) {
        const Link& l = lv[i];
        if (l.up_in == phase1) continue;  // phase 0 enters up, 1 down
        const auto code = static_cast<std::uint16_t>(i << 1);
        const std::size_t u = 2 * idx(l.peer);
        if (dist[u] == want) sc.pred.push_back(code);
        if (phase1 && dist[u + 1] == want) sc.pred.push_back(code | 1);
      }
    }
    sc.pred_off[t + 1] = static_cast<std::uint32_t>(sc.pred.size());
  }
}

std::vector<int> UpDown::state_distances_from(SwitchId s) const {
  Scratch sc;
  bfs_states(s, sc);
  return std::move(sc.dist);
}

int UpDown::legal_distance(SwitchId s, SwitchId d) const {
  if (s == d) return 0;
  const auto dist = state_distances_from(s);
  const int a = dist[idx(2 * d)];
  const int b = dist[idx(2 * d + 1)];
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

std::vector<int> UpDown::legal_distances_from(SwitchId s) const {
  const auto dist = state_distances_from(s);
  std::vector<int> out(idx(topo_->num_switches()), -1);
  for (SwitchId d = 0; d < topo_->num_switches(); ++d) {
    const int a = dist[idx(2 * d)];
    const int b = dist[idx(2 * d + 1)];
    out[idx(d)] = (a < 0) ? b : (b < 0 ? a : std::min(a, b));
  }
  out[idx(s)] = 0;
  return out;
}

std::vector<SwitchPath> UpDown::shortest_legal_paths(SwitchId s, SwitchId d,
                                                     int max_paths) const {
  std::vector<SwitchPath> out;
  if (max_paths <= 0) return out;
  Scratch sc;
  if (s != d) state_distances_from(s, sc);
  visit_shortest_legal_paths(
      s, d, max_paths, sc,
      [&out](std::span<const SwitchId> rev_sw,
             std::span<const CableId> rev_cables) {
        out.push_back(SwitchPath{{rev_sw.rbegin(), rev_sw.rend()},
                                 {rev_cables.rbegin(), rev_cables.rend()}});
      });
  return out;
}

}  // namespace itb
