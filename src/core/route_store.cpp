#include "core/route_store.hpp"

#include <cstring>
#include <stdexcept>

namespace itb {

namespace {

std::size_t uz(std::int64_t v) { return static_cast<std::size_t>(v); }

bool bytes_equal(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

std::uint64_t vec_bytes(const auto& v) {
  return static_cast<std::uint64_t>(v.size()) * sizeof(v[0]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Composition

RouteView RouteStore::compose(std::uint32_t pair_index,
                              std::uint32_t slot) const {
  RouteView v;
  v.store = this;
  v.pair_index = pair_index;
  v.slot = slot;
  const auto s = static_cast<SwitchId>(pair_index /
                                       static_cast<std::uint32_t>(num_switches_));
  const auto d = static_cast<SwitchId>(pair_index %
                                       static_cast<std::uint32_t>(num_switches_));
  const RouteRec rr = core_routes_[alt_routes_[slot]];
  v.src_switch = s;
  v.dst_switch = d;
  v.legs.pool_ = port_pool_.data();
  v.legs.count_ = rr.leg_count;
  const auto P = uz(ports_per_switch_);
  SwitchId cur = s;
  int total = 0;
  for (std::uint32_t li = 0; li < rr.leg_count; ++li) {
    const WalkRec w = walks_[route_walks_[rr.first_walk + li]];
    LegRec& rec = v.legs.recs_[li];
    rec.port_off = w.port_off;
    rec.port_count = static_cast<std::uint16_t>(w.port_count);
    rec.switch_hops = static_cast<std::uint16_t>(w.port_count);
    total += static_cast<int>(w.port_count);
    if (li + 1 == rr.leg_count) {
      rec.tail = kNoPort;
      rec.end_host = kNoHost;
    } else {
      // Walk to the leg's end switch, then rederive the in-transit host.
      // The reference builder's compile_route (tests/support/
      // route_reference.cpp) applies the same mix; keep the two in
      // lockstep — the RouteStoreDifferential tests pin them.
      const PortId* ports = port_pool_.data() + w.port_off;
      for (std::uint32_t h = 0; h < w.port_count; ++h) {
        cur = next_switch_[uz(cur) * P + uz(ports[h])];
      }
      const std::uint32_t h0 = sw_host_off_[uz(cur)];
      const std::uint32_t nh = sw_host_off_[uz(cur) + 1] - h0;
      const std::uint64_t mix =
          static_cast<std::uint64_t>(s) * 1315423911ULL +
          static_cast<std::uint64_t>(d) * 2654435761ULL +
          static_cast<std::uint64_t>(rr.alt_tag) * 40503ULL +
          static_cast<std::uint64_t>(li) * 97ULL + itb_host_salt_;
      const HostId host = sw_hosts_[h0 + static_cast<std::uint32_t>(mix % nh)];
      rec.end_host = host;
      rec.tail = host_port_[uz(host)];
    }
  }
  v.total_switch_hops = total;
  return v;
}

Route RouteStore::materialize(std::uint32_t pair_index,
                              std::uint32_t slot) const {
  Route out;
  const RouteView v = compose(pair_index, slot);
  out.src_switch = v.src_switch;
  out.dst_switch = v.dst_switch;
  out.total_switch_hops = v.total_switch_hops;
  out.alt_tag = core_routes_[alt_routes_[slot]].alt_tag;
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

Route materialize_route(const RouteView& v) {
  if (v.store == nullptr) {
    throw std::logic_error("materialize_route: view has no owning store");
  }
  return v.store->materialize(v.pair_index, v.slot);
}

// ---------------------------------------------------------------------------
// Factorized staging

void FactorizedBlock::clear() {
  walk_bytes.clear();
  walks.clear();
  route_walks.clear();
  routes.clear();
  alt_routes.clear();
  altlists.clear();
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
  const std::uint64_t h = hash_bytes(ports, n * sizeof(PortId));
  return walk_tab_.intern(
      h,
      [&](std::uint32_t id) {
        const WalkRec& w = out_->walks[id];
        return w.port_count == n &&
               bytes_equal(out_->walk_bytes.data() + w.port_off, ports,
                           n * sizeof(PortId));
      },
      [&] {
        const auto id = static_cast<std::uint32_t>(out_->walks.size());
        out_->walks.push_back(
            WalkRec{static_cast<std::uint32_t>(out_->walk_bytes.size()),
                    static_cast<std::uint32_t>(n)});
        out_->walk_bytes.insert(out_->walk_bytes.end(), ports, ports + n);
        return id;
      });
}

std::uint32_t FactorizedBlockStager::stage_route(
    const std::uint32_t* walk_ids, std::size_t n_legs, std::uint16_t alt_tag) {
  if (n_legs > static_cast<std::size_t>(kMaxRouteLegs)) {
    throw std::length_error("route exceeds kMaxRouteLegs legs");
  }
  std::uint64_t h = hash_bytes(walk_ids, n_legs * sizeof(std::uint32_t));
  h = hash_bytes(&alt_tag, sizeof(alt_tag), h);
  return route_tab_.intern(
      h,
      [&](std::uint32_t id) {
        const RouteRec& rr = out_->routes[id];
        return rr.leg_count == n_legs && rr.alt_tag == alt_tag &&
               bytes_equal(out_->route_walks.data() + rr.first_walk, walk_ids,
                           n_legs * sizeof(std::uint32_t));
      },
      [&] {
        const auto id = static_cast<std::uint32_t>(out_->routes.size());
        out_->routes.push_back(
            RouteRec{static_cast<std::uint32_t>(out_->route_walks.size()),
                     static_cast<std::uint16_t>(n_legs), alt_tag});
        out_->route_walks.insert(out_->route_walks.end(), walk_ids,
                                 walk_ids + n_legs);
        return id;
      });
}

void FactorizedBlockStager::commit_pair(const std::uint32_t* route_ids,
                                        std::size_t n) {
  const std::uint64_t h = hash_bytes(route_ids, n * sizeof(std::uint32_t));
  const std::uint32_t id = alt_tab_.intern(
      h,
      [&](std::uint32_t cand) {
        const AltListRec& a = out_->altlists[cand];
        return a.count == n &&
               bytes_equal(out_->alt_routes.data() + a.first, route_ids,
                           n * sizeof(std::uint32_t));
      },
      [&] {
        const auto id2 = static_cast<std::uint32_t>(out_->altlists.size());
        out_->altlists.push_back(
            AltListRec{static_cast<std::uint32_t>(out_->alt_routes.size()),
                       static_cast<std::uint32_t>(n)});
        out_->alt_routes.insert(out_->alt_routes.end(), route_ids,
                                route_ids + n);
        return id2;
      });
  out_->pair_alt.push_back(id);
  out_->route_instances += n;
  for (std::size_t i = 0; i < n; ++i) {
    out_->leg_instances += out_->routes[route_ids[i]].leg_count;
  }
}

// ---------------------------------------------------------------------------
// Factorized merge

FactorizedStoreBuilder::FactorizedStoreBuilder(const Topology& topo,
                                               std::uint64_t itb_host_salt)
    : topo_(&topo) {
  const int S = topo.num_switches();
  const int P = topo.ports_per_switch();
  store_.num_switches_ = S;
  store_.ports_per_switch_ = P;
  store_.itb_host_salt_ = itb_host_salt;
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
  store_.pair_alt_.reserve(uz(S) * uz(S));
}

void FactorizedStoreBuilder::append_block(const FactorizedBlock& block) {
  // Walks.
  walk_remap_.resize(block.walks.size());
  for (std::size_t lid = 0; lid < block.walks.size(); ++lid) {
    const WalkRec w = block.walks[lid];
    const PortId* p = block.walk_bytes.data() + w.port_off;
    const std::uint64_t h = hash_bytes(p, w.port_count * sizeof(PortId));
    walk_remap_[lid] = walk_tab_.intern(
        h,
        [&](std::uint32_t id) {
          const WalkRec& g = store_.walks_[id];
          return g.port_count == w.port_count &&
                 bytes_equal(store_.port_pool_.data() + g.port_off, p,
                             w.port_count * sizeof(PortId));
        },
        [&] {
          const auto id = static_cast<std::uint32_t>(store_.walks_.size());
          store_.walks_.push_back(
              WalkRec{static_cast<std::uint32_t>(store_.port_pool_.size()),
                      w.port_count});
          store_.port_pool_.insert(store_.port_pool_.end(), p,
                                   p + w.port_count);
          return id;
        });
  }
  // Routes (walk ids remapped into global id space first).
  route_remap_.resize(block.routes.size());
  for (std::size_t lid = 0; lid < block.routes.size(); ++lid) {
    const RouteRec rr = block.routes[lid];
    scratch_ids_.assign(rr.leg_count, 0);
    for (std::uint32_t i = 0; i < rr.leg_count; ++i) {
      scratch_ids_[i] = walk_remap_[block.route_walks[rr.first_walk + i]];
    }
    std::uint64_t h =
        hash_bytes(scratch_ids_.data(), scratch_ids_.size() * sizeof(std::uint32_t));
    h = hash_bytes(&rr.alt_tag, sizeof(rr.alt_tag), h);
    route_remap_[lid] = route_tab_.intern(
        h,
        [&](std::uint32_t id) {
          const RouteRec& g = store_.core_routes_[id];
          return g.leg_count == rr.leg_count && g.alt_tag == rr.alt_tag &&
                 bytes_equal(store_.route_walks_.data() + g.first_walk,
                             scratch_ids_.data(),
                             scratch_ids_.size() * sizeof(std::uint32_t));
        },
        [&] {
          const auto id =
              static_cast<std::uint32_t>(store_.core_routes_.size());
          store_.core_routes_.push_back(
              RouteRec{static_cast<std::uint32_t>(store_.route_walks_.size()),
                       rr.leg_count, rr.alt_tag});
          store_.route_walks_.insert(store_.route_walks_.end(),
                                     scratch_ids_.begin(), scratch_ids_.end());
          return id;
        });
  }
  // Alternative lists.
  alt_remap_.resize(block.altlists.size());
  for (std::size_t lid = 0; lid < block.altlists.size(); ++lid) {
    const AltListRec a = block.altlists[lid];
    scratch_ids_.assign(a.count, 0);
    for (std::uint32_t i = 0; i < a.count; ++i) {
      scratch_ids_[i] = route_remap_[block.alt_routes[a.first + i]];
    }
    const std::uint64_t h =
        hash_bytes(scratch_ids_.data(), scratch_ids_.size() * sizeof(std::uint32_t));
    alt_remap_[lid] = alt_tab_.intern(
        h,
        [&](std::uint32_t id) {
          const AltListRec& g = store_.altlists_[id];
          return g.count == a.count &&
                 bytes_equal(store_.alt_routes_.data() + g.first,
                             scratch_ids_.data(),
                             scratch_ids_.size() * sizeof(std::uint32_t));
        },
        [&] {
          const auto id = static_cast<std::uint32_t>(store_.altlists_.size());
          store_.altlists_.push_back(AltListRec{
              static_cast<std::uint32_t>(store_.alt_routes_.size()), a.count});
          store_.alt_routes_.insert(store_.alt_routes_.end(),
                                    scratch_ids_.begin(), scratch_ids_.end());
          return id;
        });
  }
  // Pair index.
  for (const std::uint32_t lid : block.pair_alt) {
    store_.pair_alt_.push_back(alt_remap_[lid]);
  }
  store_.num_route_instances_ += block.route_instances;
  leg_instances_ += block.leg_instances;
}

RouteStore FactorizedStoreBuilder::finish() {
  const std::size_t want = uz(topo_->num_switches()) * uz(topo_->num_switches());
  if (store_.pair_alt_.size() != want) {
    throw std::logic_error("FactorizedStoreBuilder: pair stream incomplete");
  }
  if (pair_transposed_) {
    // Pairs were streamed destination-major; readers index s * S + d.
    const std::size_t n = uz(topo_->num_switches());
    std::vector<std::uint32_t> by_src(want);
    for (std::size_t d = 0; d < n; ++d) {
      for (std::size_t s = 0; s < n; ++s) {
        by_src[s * n + d] = store_.pair_alt_[d * n + s];
      }
    }
    store_.pair_alt_ = std::move(by_src);
  }
  store_.port_pool_.shrink_to_fit();
  store_.walks_.shrink_to_fit();
  store_.route_walks_.shrink_to_fit();
  store_.core_routes_.shrink_to_fit();
  store_.alt_routes_.shrink_to_fit();
  store_.altlists_.shrink_to_fit();
  store_.segments_shared_ = leg_instances_ - store_.walks_.size();
  store_.core_bytes_ =
      vec_bytes(store_.port_pool_) + vec_bytes(store_.walks_) +
      vec_bytes(store_.route_walks_) + vec_bytes(store_.core_routes_) +
      vec_bytes(store_.alt_routes_) + vec_bytes(store_.altlists_) +
      vec_bytes(store_.pair_alt_);
  store_.table_bytes_ =
      store_.core_bytes_ + vec_bytes(store_.next_switch_) +
      vec_bytes(store_.sw_host_off_) + vec_bytes(store_.sw_hosts_) +
      vec_bytes(store_.host_port_);
  return std::move(store_);
}

}  // namespace itb
