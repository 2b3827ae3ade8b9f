#include "route/simple_routes.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/pool.hpp"

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

/// Arena offsets are 32-bit.
std::uint32_t offset(std::size_t v) {
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SimpleRoutes: candidate arena exceeds 2^32");
  }
  return static_cast<std::uint32_t>(v);
}

void validate(const SimpleRoutesOptions& o) {
  if (o.max_candidates < 1 || o.max_candidates > SimpleRoutes::kMaxCandidates) {
    throw std::invalid_argument(
        "SimpleRoutes: max_candidates must be in [1, " +
        std::to_string(SimpleRoutes::kMaxCandidates) + "], got " +
        std::to_string(o.max_candidates));
  }
  if (o.refine_passes < 0) {
    throw std::invalid_argument(
        "SimpleRoutes: refine_passes must be >= 0, got " +
        std::to_string(o.refine_passes));
  }
}
}  // namespace

SimpleRoutes::SimpleRoutes(const Topology& topo, const UpDown& ud,
                           SimpleRoutesOptions opts, int jobs)
    : topo_(&topo), objective_(opts.objective),
      num_switches_(topo.num_switches()) {
  validate(opts);
  const auto n = idx(num_switches_);
  if (n * n > std::numeric_limits<std::uint32_t>::max()) {
    // The placement order holds 32-bit pair keys.
    throw std::length_error("SimpleRoutes: more than 2^32 switch pairs");
  }
  weight_.assign(idx(topo.num_channels()), 0);
  enumerate(ud, opts.max_candidates, jobs);
  chosen_.assign(n * n, 0);

  // Seeded random placement order, as GM's balance depends on order and we
  // want determinism without a systematic bias toward low switch ids.
  std::vector<std::uint32_t> order(n * n);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(opts.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  // Greedy placement, then refinement: re-place each route with its own
  // charge removed.  A pair with one candidate is a no-op in a refine pass
  // (it takes back and re-charges the same channels), so the refine passes
  // walk only the pairs with a choice, in the same order.
  place_all(order, false);
  if (opts.refine_passes == 0) return;
  std::erase_if(order, [this](std::uint32_t k) {
    const Block& b = block_of(k);
    const std::size_t local = k % block_pairs_;
    return b.pair_first[local + 1] - b.pair_first[local] == 1;
  });
  for (int pass = 0; pass < opts.refine_passes; ++pass) place_all(order, true);
}

void SimpleRoutes::place_all(const std::vector<std::uint32_t>& order,
                             bool replace) {
  // The order is random over an arena far larger than cache: fetch each
  // pair's offsets and hops a few placements ahead, one level per stage.
  const std::size_t m = order.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (i + 16 < m) {
      const std::uint32_t k = order[i + 16];
      __builtin_prefetch(block_of(k).pair_first.data() + k % block_pairs_);
      __builtin_prefetch(chosen_.data() + k);
    }
    if (i + 8 < m) {
      const std::uint32_t k = order[i + 8];
      __builtin_prefetch(block_of(k).cand_first.data() + first_candidate(k));
    }
    if (i + 4 < m) {
      const std::uint32_t k = order[i + 4];
      const Block& b = block_of(k);
      __builtin_prefetch(b.hop.data() + b.cand_first[first_candidate(k)]);
    }
    const std::uint32_t k = order[i];
    if (replace) charge(chosen_channels(k), -1);
    place(k);
  }
}

void SimpleRoutes::enumerate(const UpDown& ud, int max_candidates,
                             int jobs) {
  // Candidate sets per ordered pair.  The product-graph BFS is per source,
  // not per pair: one state_distances_from(s) serves every destination of
  // s, which is what keeps dense low-diameter graphs (degree ~ switches)
  // tractable.  Each block reuses one scratch for all of its sources.
  const int n = num_switches_;
  const auto enumerate_block = [&](SwitchId s0, SwitchId s1) {
    Block blk;
    UpDown::Scratch sc;
    const auto emit = [&](std::span<const SwitchId> rev_sw,
                          std::span<const CableId> rev_cables) {
      for (std::size_t j = rev_cables.size(); j-- > 0;) {
        blk.hop.push_back(
            topo_->channel_from_switch(rev_sw[j + 1], rev_cables[j]));
      }
      blk.cand_first.push_back(offset(blk.hop.size()));
    };
    for (SwitchId s = s0; s < s1; ++s) {
      ud.state_distances_from(s, sc);
      for (SwitchId d = 0; d < n; ++d) {
        if (ud.visit_shortest_legal_paths(s, d, max_candidates, sc, emit) ==
            0) {
          throw std::runtime_error("SimpleRoutes: pair unreachable");
        }
        blk.pair_first.push_back(offset(blk.cand_first.size() - 1));
      }
    }
    return blk;
  };

  // One block when serial; otherwise a few per worker, as build_factorized
  // chunks its rows.  The blocks stay where the workers built them, in
  // source order: copying them into one array would hold them twice while
  // it runs.
  const int chunk =
      std::max(1, jobs <= 1 ? n : (n + jobs * 4 - 1) / (jobs * 4));
  const int num_blocks = (n + chunk - 1) / chunk;
  blocks_ = parallel_map<Block>(num_blocks, jobs, [&](int b) {
    return enumerate_block(b * chunk, std::min(n, (b + 1) * chunk));
  });
  block_pairs_ = idx(chunk) * idx(n);
}

SwitchPath SimpleRoutes::route(SwitchId s, SwitchId d) const {
  const std::span<const ChannelId> hops = route_channels(s, d);
  SwitchPath p;
  p.sw.reserve(hops.size() + 1);
  p.cable.reserve(hops.size());
  p.sw.push_back(s);
  for (const ChannelId ch : hops) {
    // Channel 2c leaves cable c's a end, channel 2c + 1 its b end.
    const CableId c = ch / 2;
    const Cable& cb = topo_->cable(c);
    p.cable.push_back(c);
    p.sw.push_back(ch % 2 == 0 ? cb.b.sw : cb.a.sw);
  }
  return p;
}

void SimpleRoutes::place(std::size_t k) {
  chosen_[k] = pick_best(k);
  charge(chosen_channels(k), +1);
}

void SimpleRoutes::charge(std::span<const ChannelId> path, int delta) {
  for (const ChannelId ch : path) {
    weight_[idx(ch)] += delta;
    assert(weight_[idx(ch)] >= 0);
  }
}

std::uint16_t SimpleRoutes::pick_best(std::size_t k) const {
  std::uint16_t best = 0;
  int best_max = std::numeric_limits<int>::max();
  long best_sum = std::numeric_limits<long>::max();
  const Block& b = block_of(k);
  const std::size_t local = k % block_pairs_;
  const std::uint32_t first = b.pair_first[local];
  for (std::uint32_t c = first; c < b.pair_first[local + 1]; ++c) {
    int w_max = 0;
    long w_sum = 0;
    for (const ChannelId ch : channels(b, c)) {
      const int w = weight_[idx(ch)];
      w_max = std::max(w_max, w);
      w_sum += w;
    }
    const bool better =
        objective_ == BalanceObjective::kMinMax
            ? (w_max < best_max || (w_max == best_max && w_sum < best_sum))
            : (w_sum < best_sum || (w_sum == best_sum && w_max < best_max));
    if (better) {
      best_max = w_max;
      best_sum = w_sum;
      best = static_cast<std::uint16_t>(c - first);
    }
  }
  return best;
}

}  // namespace itb
