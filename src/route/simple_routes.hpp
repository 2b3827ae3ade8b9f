// Emulation of Myricom GM's `simple_routes` route selection.
//
// GM computes the set of up*/down* paths and then selects ONE path per
// source-destination pair, balancing traffic across links via link weights.
// The paper notes two properties we preserve:
//   * the selected path may be a *non-minimal* legal path — GM optimizes
//     balance over the legal shortest paths it found, and legal shortest
//     paths are themselves often longer than true minimal paths;
//   * using simple_routes' balanced selection beats naively taking any
//     minimal legal path, so it is the right baseline for UP/DOWN.
//
// Our emulation: for every ordered switch pair, enumerate up to
// `max_candidates` shortest legal paths; process pairs in a seeded random
// order; pick the candidate minimizing (max directed-channel weight along
// the path, then total weight, then candidate index) and charge one unit of
// weight to each directed channel it crosses.  `refine_passes` additional
// passes re-place every route after removing its own charge, which lets
// early (greedy) decisions be revisited; they skip the pairs with a single
// candidate, for which re-placing changes nothing.
//
// Enumeration is per source: one product-graph BFS fills the source's
// predecessor DAG (UpDown::Scratch), and every destination's candidates
// are a depth-first walk back over it.
//
// Storage is a flat candidate arena: pair -> its candidates -> each
// candidate's directed channels, in two offset arrays and one channel
// array per block of consecutive sources, plus the index of the chosen
// candidate per pair.  Placement reads channel ids straight from the
// arena; route() rebuilds a SwitchPath on demand.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "route/switch_path.hpp"
#include "route/updown.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Balancing objective when choosing among a pair's candidate paths.
enum class BalanceObjective {
  kMinMax,  // minimise the hottest channel on the path (default)
  kMinSum,  // minimise total weight along the path
};

struct SimpleRoutesOptions {
  int max_candidates = 16;  // in [1, SimpleRoutes::kMaxCandidates]
  int refine_passes = 2;    // >= 0
  std::uint64_t seed = 1;
  BalanceObjective objective = BalanceObjective::kMinMax;
};

class SimpleRoutes {
 public:
  /// Largest accepted max_candidates: the chosen candidate of a pair is
  /// stored as a 16-bit index among that pair's candidates.
  static constexpr int kMaxCandidates =
      std::numeric_limits<std::uint16_t>::max();

  /// Computes one legal path per ordered switch pair.  Candidate
  /// enumeration is independent per source; it runs in contiguous source
  /// blocks across `jobs` pool workers (jobs <= 1: one block, inline),
  /// which are kept in source order; placement is serial, so the result is
  /// bit-identical for every jobs value.  Throws std::invalid_argument on
  /// an out-of-range option.
  SimpleRoutes(const Topology& topo, const UpDown& ud,
               SimpleRoutesOptions opts = {}, int jobs = 1);

  /// Selected path for the ordered pair (s, d); s == d yields the trivial
  /// single-switch path.  Rebuilt from the arena on every call.
  [[nodiscard]] SwitchPath route(SwitchId s, SwitchId d) const;

  /// The directed channels of the selected path for (s, d), in path order,
  /// read straight from the arena (empty for s == d).  Channel 2c leaves
  /// cable c at its a end, 2c + 1 at its b end.
  [[nodiscard]] std::span<const ChannelId> route_channels(SwitchId s,
                                                          SwitchId d) const {
    return chosen_channels(key(s, d));
  }

  /// Final directed-channel weights (route count per channel), exposed for
  /// tests and the path-statistics bench.
  [[nodiscard]] const std::vector<int>& channel_weights() const {
    return weight_;
  }

 private:
  /// The arena of a run of consecutive sources, in source order, with
  /// block-local offsets; both offset arrays start with a 0.
  struct Block {
    std::vector<std::uint32_t> pair_first{0};  // pair -> cand_first
    std::vector<std::uint32_t> cand_first{0};  // candidate -> hop
    std::vector<ChannelId> hop;  // directed channels, path order
  };

  [[nodiscard]] std::size_t key(SwitchId s, SwitchId d) const {
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(num_switches_) +
           static_cast<std::size_t>(d);
  }
  [[nodiscard]] const Block& block_of(std::size_t k) const {
    return blocks_[k / block_pairs_];
  }
  /// Block-local candidate id of the first candidate of pair `k`.
  [[nodiscard]] std::uint32_t first_candidate(std::size_t k) const {
    return block_of(k).pair_first[k % block_pairs_];
  }
  [[nodiscard]] static std::span<const ChannelId> channels(const Block& b,
                                                           std::size_t c) {
    return {b.hop.data() + b.cand_first[c], b.hop.data() + b.cand_first[c + 1]};
  }
  [[nodiscard]] std::span<const ChannelId> chosen_channels(
      std::size_t k) const {
    return channels(block_of(k), first_candidate(k) + chosen_[k]);
  }
  void enumerate(const UpDown& ud, int max_candidates, int jobs);
  void place_all(const std::vector<std::uint32_t>& order, bool replace);
  void place(std::size_t k);
  void charge(std::span<const ChannelId> path, int delta);
  [[nodiscard]] std::uint16_t pick_best(std::size_t k) const;

  const Topology* topo_;
  BalanceObjective objective_ = BalanceObjective::kMinMax;
  int num_switches_;
  std::vector<Block> blocks_;          // sources [i * B, (i + 1) * B)
  std::size_t block_pairs_ = 1;        // B * num_switches_
  std::vector<std::uint16_t> chosen_;  // [s * S + d]: index in its pair
  std::vector<int> weight_;            // per directed channel
};

}  // namespace itb
