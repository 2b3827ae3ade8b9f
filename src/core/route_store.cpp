#include "core/route_store.hpp"

#include <stdexcept>
#include <type_traits>

namespace itb {

namespace {

std::size_t uz(std::int64_t v) { return static_cast<std::size_t>(v); }

std::uint64_t vec_bytes(const auto& v) {
  return static_cast<std::uint64_t>(v.size()) * sizeof(v[0]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Composition

RouteView RouteSet::compose(SwitchId s, SwitchId d,
                            std::uint32_t slot) const {
  RouteView v;
  const SpanRec rr = routes_.recs[alts_.items[slot]];
  v.src_switch = s;
  v.dst_switch = d;
  v.legs.pool_ = walks_.items.data();
  v.legs.count_ = rr.count;
  const auto P = uz(ports_per_switch_);
  SwitchId cur = s;
  int total = 0;
  for (std::uint32_t li = 0; li < rr.count; ++li) {
    const SpanRec w = walks_.recs[routes_.items[rr.first + li]];
    LegRec& rec = v.legs.recs_[li];
    rec.port_off = w.first;
    rec.port_count = w.count;
    rec.switch_hops = w.count;
    total += w.count;
    if (li + 1 == rr.count) {
      rec.tail = kNoPort;
      rec.end_host = kNoHost;
    } else {
      // Walk to the leg's end switch, then rederive the in-transit host.
      // The reference builder's compile_route (tests/support/
      // route_reference.cpp) applies the same mix; keep the two in
      // lockstep — the RouteStoreDifferential tests pin them.
      const PortId* ports = walks_.items.data() + w.first;
      for (std::uint32_t h = 0; h < w.count; ++h) {
        cur = next_switch_[uz(cur) * P + uz(ports[h])];
      }
      const std::uint32_t h0 = sw_host_off_[uz(cur)];
      const std::uint32_t nh = sw_host_off_[uz(cur) + 1] - h0;
      const std::uint64_t mix =
          static_cast<std::uint64_t>(s) * 1315423911ULL +
          static_cast<std::uint64_t>(d) * 2654435761ULL +
          static_cast<std::uint64_t>(rr.tag) * 40503ULL +
          static_cast<std::uint64_t>(li) * 97ULL;
      const HostId host = sw_hosts_[h0 + static_cast<std::uint32_t>(mix % nh)];
      rec.end_host = host;
      rec.tail = host_port_[uz(host)];
    }
  }
  v.total_switch_hops = total;
  return v;
}

Route RouteSet::materialize(SwitchId s, SwitchId d, int alt) const {
  const std::uint32_t slot = alts_.recs[pair_alt_[key(s, d)]].first +
                             static_cast<std::uint32_t>(alt);
  const RouteView v = compose(s, d, slot);
  Route out;
  out.src_switch = v.src_switch;
  out.dst_switch = v.dst_switch;
  out.total_switch_hops = v.total_switch_hops;
  out.alt_tag = routes_.recs[alts_.items[slot]].tag;
  out.legs.reserve(v.legs.size());
  for (const LegView leg : v.legs) {
    RouteLeg l;
    l.ports.assign(leg.ports.begin(), leg.ports.end());
    l.end_host = leg.end_host;
    l.switch_hops = leg.switch_hops;
    out.legs.push_back(std::move(l));
  }
  // Rederive the switch walk from the composition table.
  out.switches.reserve(uz(v.total_switch_hops) + 1);
  SwitchId cur = v.src_switch;
  out.switches.push_back(cur);
  const auto P = uz(ports_per_switch_);
  for (const LegView leg : v.legs) {
    for (int h = 0; h < leg.switch_hops; ++h) {
      cur = next_switch_[uz(cur) * P + uz(leg.ports[uz(h)])];
      out.switches.push_back(cur);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Factorized staging

void FactorizedBlock::clear() {
  walks.clear();
  routes.clear();
  alts.clear();
  pair_alt.clear();
  route_instances = 0;
  leg_instances = 0;
}

void FactorizedBlockStager::begin_block(FactorizedBlock* out) {
  out_ = out;
  out_->clear();
  walk_tab_.clear();
  route_tab_.clear();
  alt_tab_.clear();
}

std::uint32_t FactorizedBlockStager::stage_walk(const PortId* ports,
                                                std::size_t n) {
  return walk_tab_.intern(out_->walks, std::span<const PortId>(ports, n));
}

std::uint32_t FactorizedBlockStager::stage_route(
    const std::uint32_t* walk_ids, std::size_t n_legs, std::uint16_t alt_tag) {
  if (n_legs > static_cast<std::size_t>(kMaxRouteLegs)) {
    throw std::length_error("route exceeds kMaxRouteLegs legs");
  }
  return route_tab_.intern(
      out_->routes, std::span<const std::uint32_t>(walk_ids, n_legs), alt_tag);
}

void FactorizedBlockStager::commit_pair(const std::uint32_t* route_ids,
                                        std::size_t n) {
  out_->pair_alt.push_back(alt_tab_.intern(
      out_->alts, std::span<const std::uint32_t>(route_ids, n)));
  out_->route_instances += n;
  for (std::size_t i = 0; i < n; ++i) {
    out_->leg_instances += out_->routes.recs[route_ids[i]].count;
  }
}

// ---------------------------------------------------------------------------
// Factorized merge

FactorizedStoreBuilder::FactorizedStoreBuilder(const Topology& topo)
    : t0_(std::chrono::steady_clock::now()) {
  const int S = topo.num_switches();
  const int P = topo.ports_per_switch();
  store_.num_switches_ = S;
  store_.ports_per_switch_ = P;
  store_.next_switch_.assign(uz(S) * uz(P), kNoSwitch);
  for (SwitchId s = 0; s < S; ++s) {
    for (PortId p = 0; p < P; ++p) {
      const PortPeer& pp = topo.peer(s, p);
      if (pp.kind == PeerKind::kSwitch) {
        store_.next_switch_[uz(s) * uz(P) + uz(p)] = pp.sw;
      }
    }
  }
  store_.sw_host_off_.assign(uz(S) + 1, 0);
  for (SwitchId s = 0; s < S; ++s) {
    const auto hosts = topo.hosts_of_switch(s);
    store_.sw_host_off_[uz(s) + 1] =
        store_.sw_host_off_[uz(s)] + static_cast<std::uint32_t>(hosts.size());
    store_.sw_hosts_.insert(store_.sw_hosts_.end(), hosts.begin(),
                            hosts.end());
  }
  store_.host_port_.reserve(uz(topo.num_hosts()));
  for (HostId hst = 0; hst < topo.num_hosts(); ++hst) {
    store_.host_port_.push_back(topo.host(hst).port);
  }
  store_.pair_alt_.assign(uz(S) * uz(S), 0);
}

namespace {

/// Interns every sequence of a block-local pool into the global pool, in
/// local-id order, recording local -> global ids in `remap`.  Items are
/// ids into the previous pool and go through its remap `ids` first; walk
/// items are ports, interned as they are.
template <typename T>
void merge_pool(const SpanPool<T>& local, SpanPool<T>& global,
                SpanInterner& tab, std::span<const std::uint32_t> ids,
                std::vector<std::uint32_t>& remap,
                std::vector<std::uint32_t>& scratch) {
  remap.resize(local.size());
  for (std::size_t lid = 0; lid < local.size(); ++lid) {
    std::span<const T> seq = local[lid];
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      scratch.clear();
      for (const std::uint32_t x : seq) scratch.push_back(ids[x]);
      seq = scratch;
    }
    remap[lid] = tab.intern(global, seq, local.recs[lid].tag);
  }
}

}  // namespace

void FactorizedStoreBuilder::append_block(const FactorizedBlock& block) {
  const std::size_t n = uz(store_.num_switches_);
  if (block.pair_alt.size() > store_.pair_alt_.size() - (row_ * n + col_)) {
    throw std::logic_error("FactorizedStoreBuilder: pair stream overflows");
  }
  merge_pool(block.walks, store_.walks_, walk_tab_, {}, walk_remap_,
             scratch_ids_);
  merge_pool(block.routes, store_.routes_, route_tab_, walk_remap_,
             route_remap_, scratch_ids_);
  merge_pool(block.alts, store_.alts_, alt_tab_, route_remap_, alt_remap_,
             scratch_ids_);
  // A destination-major stream (row = d, col = s) lands at s * S + d.
  for (const std::uint32_t lid : block.pair_alt) {
    store_.pair_alt_[pair_transposed_ ? col_ * n + row_ : row_ * n + col_] =
        alt_remap_[lid];
    if (++col_ == n) {
      col_ = 0;
      ++row_;
    }
  }
  store_.num_route_instances_ += block.route_instances;
  leg_instances_ += block.leg_instances;
}

RouteSet FactorizedStoreBuilder::finish(RoutingAlgorithm algo) {
  if (row_ != uz(store_.num_switches_)) {
    throw std::logic_error("FactorizedStoreBuilder: pair stream incomplete");
  }
  store_.core_bytes_ = vec_bytes(store_.pair_alt_);
  const auto seal = [this](auto& pool) {
    pool.items.shrink_to_fit();
    pool.recs.shrink_to_fit();
    store_.core_bytes_ += vec_bytes(pool.items) + vec_bytes(pool.recs);
  };
  seal(store_.walks_);
  seal(store_.routes_);
  seal(store_.alts_);
  store_.segments_shared_ = leg_instances_ - store_.walks_.size();
  store_.table_bytes_ =
      store_.core_bytes_ + vec_bytes(store_.next_switch_) +
      vec_bytes(store_.sw_host_off_) + vec_bytes(store_.sw_hosts_) +
      vec_bytes(store_.host_port_);
  store_.algo_ = algo;
  store_.build_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0_)
                       .count();
  return std::move(store_);
}

}  // namespace itb
