// Routing tables at switch-pair granularity: the factorized RouteSet.
//
// Myrinet NICs hold per-destination route lists; because every host on a
// switch shares the same switch-level paths, the table is stored per
// ordered (source switch, destination switch) pair and the delivery port is
// appended per packet.  The paper caps alternatives at 10 per pair to keep
// NIC look-up cheap; the same cap is the default (core/route_builder.hpp).
//
// Everything below the pair is interned so that no absolute switch or host
// id survives into route identity.  Three SpanPools (core/intern.hpp) and
// the pair index:
//
//   walks_     PortId items: dedup'd leg port walks (switch output ports
//              only — no ITB eject ports)
//   routes_    u32 items: per distinct route its walk ids; the SpanRec tag
//              is the route's alt tag
//   alts_      u32 items: per distinct alternative list its route ids
//   pair_alt_  [u32 ...] (src,dst) switch pair -> alts_ id
//
// On regular topologies the same port walks, routes and alternative lists
// recur across thousands of pairs (a Dragonfly's l-g-l pattern has a few
// thousand distinct port walks network-wide), so the core shrinks from
// O(route instances) to O(distinct shapes) + O(S^2) pair words — 22x
// smaller than an instance-flat layout at the 2064-switch scale.
//
// Lookup *composes* a self-contained RouteView on the fly: end switches
// are rederived by walking a (switch, port) -> switch table, the ITB
// in-transit host is recomputed as a deterministic function of
// (src, dst, alt tag, leg), and the eject port is synthesized from the
// host attachment table.  Composition is a handful of indexed loads per
// leg (single-leg routes — every UP/DOWN and MIN route, and most ITB
// alternatives — walk nothing).  `materialize(s, d, alt)` inflates one
// alternative into an owning Route for tests and IO.
//
// A RouteSet is immutable once built.  Views are trivially copyable and
// carry no locator back to it (a Packet stores one by value); thanks to
// the inline leg records the per-hop data path `route.legs[i].ports[h]` is
// two indexed loads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/intern.hpp"
#include "core/route.hpp"
#include "topo/topology.hpp"
#include "topo/types.hpp"

namespace itb {

/// Upper bound on legs per route a view can carry inline.  A route with k
/// legs uses k-1 in-transit buffers; the paper's tables peak at 3-4 legs
/// and the 16x16 torus at the bench frontier stays under 10, so 12 leaves
/// headroom.  Builders throw std::length_error beyond it.
inline constexpr int kMaxRouteLegs = 12;

// ---------------------------------------------------------------------------
// Views

/// Port sequence of one leg: `n_pool` ports resident in the shared pool
/// plus an optional synthesized trailing port (the ITB eject port of a
/// factorized intermediate leg).  Indexing mirrors a flat array.
class PortSeq {
 public:
  PortSeq() = default;
  PortSeq(const PortId* data, std::uint16_t n_pool, PortId tail)
      : data_(data), n_pool_(n_pool), tail_(tail) {}

  [[nodiscard]] std::size_t size() const {
    return n_pool_ + (tail_ != kNoPort ? 1u : 0u);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] PortId operator[](std::size_t i) const {
    return i < n_pool_ ? data_[i] : tail_;
  }
  [[nodiscard]] PortId front() const { return (*this)[0]; }
  [[nodiscard]] PortId back() const { return (*this)[size() - 1]; }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PortId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PortId*;
    using reference = PortId;

    iterator(const PortSeq* s, std::size_t i) : s_(s), i_(i) {}
    PortId operator*() const { return (*s_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const PortSeq* s_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size()}; }

 private:
  const PortId* data_ = nullptr;
  std::uint16_t n_pool_ = 0;
  PortId tail_ = kNoPort;
};

/// Non-owning view of one leg; mirrors RouteLeg's members.
struct LegView {
  PortSeq ports;
  HostId end_host = kNoHost;
  int switch_hops = 0;
};

/// One composed leg record held inline in a RouteView.
struct LegRec {
  std::uint32_t port_off = 0;    // into the owning store's port pool
  std::uint16_t port_count = 0;  // ports resident in the pool
  std::uint16_t switch_hops = 0;
  PortId tail = kNoPort;         // synthesized ITB eject port
  HostId end_host = kNoHost;
};

/// Random-access range over a route's composed legs.  The records live
/// inline (composition fills them once per lookup); only the port pool is
/// referenced through the owning store, so the range stays valid as long
/// as the store is alive.
class LegRange {
 public:
  LegRange() = default;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] LegView operator[](std::size_t i) const {
    const LegRec& l = recs_[i];
    return LegView{PortSeq{pool_ + l.port_off, l.port_count, l.tail},
                   l.end_host, l.switch_hops};
  }
  [[nodiscard]] LegView front() const { return (*this)[0]; }
  [[nodiscard]] LegView back() const { return (*this)[count_ - 1]; }

  class iterator {
   public:
    iterator(const LegRange* r, std::size_t i) : r_(r), i_(i) {}
    LegView operator*() const { return (*r_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const LegRange* r_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, count_}; }

 private:
  friend class RouteSet;
  const PortId* pool_ = nullptr;
  std::uint32_t count_ = 0;
  LegRec recs_[kMaxRouteLegs];
};

class RouteSet;

/// Non-owning composed view of one route; member names mirror Route so
/// call sites (`r.total_switch_hops`, `r.legs[i].ports[h]`) read the same
/// against either representation.  Trivially copyable; Packet stores one
/// by value.  The full switch walk is not carried — consumers that need it
/// use RouteSet::materialize or track the current switch while walking the
/// port bytes through the topology.
struct RouteView {
  SwitchId src_switch = kNoSwitch;
  SwitchId dst_switch = kNoSwitch;
  int total_switch_hops = 0;
  LegRange legs;

  [[nodiscard]] int num_itbs() const {
    return static_cast<int>(legs.size()) - 1;
  }
};

/// The alternatives of one (src,dst) pair: a random-access range composing
/// RouteView by value.
class AltsView {
 public:
  AltsView() = default;
  AltsView(const RouteSet* set, SwitchId s, SwitchId d, std::uint32_t first,
           std::uint32_t count)
      : set_(set), s_(s), d_(d), first_(first), count_(count) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] RouteView operator[](std::size_t i) const;
  [[nodiscard]] RouteView front() const { return (*this)[0]; }
  [[nodiscard]] RouteView back() const { return (*this)[count_ - 1]; }

  class iterator {
   public:
    iterator(const AltsView* v, std::size_t i) : v_(v), i_(i) {}
    RouteView operator*() const { return (*v_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const AltsView* v_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, count_}; }

 private:
  const RouteSet* set_ = nullptr;
  SwitchId s_ = kNoSwitch;
  SwitchId d_ = kNoSwitch;
  std::uint32_t first_ = 0;
  std::uint32_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Table

class RouteSet {
 public:
  [[nodiscard]] RoutingAlgorithm algorithm() const { return algo_; }
  [[nodiscard]] int num_switches() const { return num_switches_; }

  [[nodiscard]] AltsView alternatives(SwitchId s, SwitchId d) const {
    const SpanRec& a = alts_.recs[pair_alt_[key(s, d)]];
    return {this, s, d, a.first, a.count};
  }

  [[nodiscard]] RouteView view(SwitchId s, SwitchId d, int alt) const {
    return alternatives(s, d)[static_cast<std::size_t>(alt)];
  }

  /// Owning copy of one alternative (tests / IO): the composed legs plus
  /// the alt tag, with the switch walk rederived from the composition
  /// table.
  [[nodiscard]] Route materialize(SwitchId s, SwitchId d, int alt) const;

  [[nodiscard]] std::size_t num_pairs() const { return pair_alt_.size(); }
  /// Route *instances* (sum of per-pair alternative counts).
  [[nodiscard]] std::size_t num_routes() const { return num_route_instances_; }

  /// Bytes held by all arrays — the route core plus the composition
  /// tables; excludes the fixed-size object header.
  [[nodiscard]] std::uint64_t table_bytes() const { return table_bytes_; }
  /// Bytes of the route core alone (pair index + interned pools, without
  /// the topology-derived composition tables).
  [[nodiscard]] std::uint64_t core_bytes() const { return core_bytes_; }
  /// Leg instances that dedup'd onto an already-interned port walk.
  [[nodiscard]] std::uint64_t segments_shared() const {
    return segments_shared_;
  }
  /// Wall-clock time from FactorizedStoreBuilder construction to finish().
  [[nodiscard]] double build_ms() const { return build_ms_; }

  // Distinct-shape counts.
  [[nodiscard]] std::size_t distinct_walks() const { return walks_.size(); }
  [[nodiscard]] std::size_t distinct_routes() const { return routes_.size(); }
  [[nodiscard]] std::size_t distinct_altlists() const { return alts_.size(); }

  // Raw arrays, exposed for byte-identity tests and debugging.
  [[nodiscard]] std::span<const PortId> port_pool() const {
    return walks_.items;
  }
  [[nodiscard]] std::span<const SpanRec> walks() const { return walks_.recs; }
  [[nodiscard]] std::span<const std::uint32_t> route_walks() const {
    return routes_.items;
  }
  [[nodiscard]] std::span<const SpanRec> core_routes() const {
    return routes_.recs;
  }
  [[nodiscard]] std::span<const std::uint32_t> alt_routes() const {
    return alts_.items;
  }
  [[nodiscard]] std::span<const SpanRec> altlists() const {
    return alts_.recs;
  }
  [[nodiscard]] std::span<const std::uint32_t> pair_altlist() const {
    return pair_alt_;
  }

 private:
  friend class AltsView;
  friend class FactorizedStoreBuilder;

  RouteSet() = default;  // built only by FactorizedStoreBuilder

  [[nodiscard]] std::size_t key(SwitchId s, SwitchId d) const {
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(num_switches_) +
           static_cast<std::size_t>(d);
  }
  /// Compose the view for alternative slot `slot` (an index into
  /// alts_.items) of pair (s, d).
  [[nodiscard]] RouteView compose(SwitchId s, SwitchId d,
                                  std::uint32_t slot) const;

  RoutingAlgorithm algo_ = RoutingAlgorithm::kUpDown;
  int num_switches_ = 0;

  // Route core.
  SpanPool<PortId> walks_;
  SpanPool<std::uint32_t> routes_;
  SpanPool<std::uint32_t> alts_;
  std::vector<std::uint32_t> pair_alt_;
  // Composition tables (derived from the topology at build time).
  int ports_per_switch_ = 0;
  std::vector<SwitchId> next_switch_;   // [switch * P + port] -> peer switch
  std::vector<std::uint32_t> sw_host_off_;  // CSR offsets into sw_hosts_
  std::vector<HostId> sw_hosts_;            // hosts per switch, port order
  std::vector<PortId> host_port_;           // attachment port per host

  std::uint64_t num_route_instances_ = 0;
  std::uint64_t table_bytes_ = 0;
  std::uint64_t core_bytes_ = 0;
  std::uint64_t segments_shared_ = 0;
  double build_ms_ = 0.0;
};

inline RouteView AltsView::operator[](std::size_t i) const {
  return set_->compose(s_, d_, first_ + static_cast<std::uint32_t>(i));
}

// ---------------------------------------------------------------------------
// Builders

/// Staged factorized rows for a contiguous block of source switches.  All
/// ids are block-local, assigned in first-appearance order over the
/// block's (s,d) pair stream — which makes the merged global ids a pure
/// function of the pair stream, independent of how sources were blocked
/// across workers.
struct FactorizedBlock {
  SpanPool<PortId> walks;
  SpanPool<std::uint32_t> routes;
  SpanPool<std::uint32_t> alts;
  std::vector<std::uint32_t> pair_alt;
  std::uint64_t route_instances = 0;
  std::uint64_t leg_instances = 0;

  void clear();
};

/// Block-local stager with interning; reusable across blocks (serial
/// builds keep one and clear between sources).
class FactorizedBlockStager {
 public:
  void begin_block(FactorizedBlock* out);

  /// Interns one leg port walk (switch output ports only, no eject port).
  std::uint32_t stage_walk(const PortId* ports, std::size_t n);
  /// Interns one route shape over previously staged walk ids.
  std::uint32_t stage_route(const std::uint32_t* walk_ids, std::size_t n_legs,
                            std::uint16_t alt_tag);
  /// Appends the next pair's alternative list (pairs strictly in (s,d)
  /// order within the block), interning the list itself.
  void commit_pair(const std::uint32_t* route_ids, std::size_t n);

 private:
  FactorizedBlock* out_ = nullptr;
  SpanInterner walk_tab_;
  SpanInterner route_tab_;
  SpanInterner alt_tab_;
};

/// Serial merge of staged blocks into the global factorized store.
/// Blocks must be appended in ascending source order, covering every
/// source switch exactly once.
class FactorizedStoreBuilder {
 public:
  explicit FactorizedStoreBuilder(const Topology& topo);

  /// Declares that pairs will be committed destination-major — stream
  /// position d * S + s instead of s * S + d.  append_block writes each
  /// such pair straight to its (s, d)-major slot, the layout every reader
  /// assumes.
  /// Destination-major staging lets the ITB build reuse one per-destination
  /// pruned DAG across all sources (see route_builder.cpp).
  void set_pair_transposed(bool v) { pair_transposed_ = v; }

  void append_block(const FactorizedBlock& block);
  [[nodiscard]] RouteSet finish(RoutingAlgorithm algo);

 private:
  std::chrono::steady_clock::time_point t0_;
  RouteSet store_;
  SpanInterner walk_tab_;
  SpanInterner route_tab_;
  SpanInterner alt_tab_;
  std::vector<std::uint32_t> walk_remap_;
  std::vector<std::uint32_t> route_remap_;
  std::vector<std::uint32_t> alt_remap_;
  std::vector<std::uint32_t> scratch_ids_;
  std::uint64_t leg_instances_ = 0;
  std::size_t row_ = 0;  // stream position row_ * S + col_ of the next pair
  std::size_t col_ = 0;
  bool pair_transposed_ = false;
};

}  // namespace itb
