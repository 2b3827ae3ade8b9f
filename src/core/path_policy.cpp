#include "core/path_policy.hpp"

#include <algorithm>
#include <cassert>
#include <new>

namespace itb {

const char* to_string(PathPolicy p) {
  switch (p) {
    case PathPolicy::kSingle: return "SP";
    case PathPolicy::kRoundRobin: return "RR";
    case PathPolicy::kRandom: return "RND";
    case PathPolicy::kAdaptive: return "ADAPT";
  }
  return "?";
}

PathSelector::PathSelector(PathPolicy policy, int num_switches,
                           std::uint64_t seed, Arena& arena) {
  reset(policy, num_switches, seed, arena);
}

void PathSelector::reset(PathPolicy policy, int num_switches,
                         std::uint64_t seed, Arena& arena) {
  policy_ = policy;
  rng_ = Rng(seed);
  num_switches_ = num_switches;
  arena_ = &arena;
  rr_next_ = nullptr;
  rr_marks_ = nullptr;
  // All destinations unexplored; the flat table regrows its stride on
  // demand (capacity is kept, so a reset-and-rerun reuses the storage).
  ewma_.clear();
  ewma_stride_ = 0;
}

void PathSelector::draw_rotation_row() {
  const auto n = static_cast<std::size_t>(num_switches_);
  rr_next_ = static_cast<std::uint16_t*>(
      arena_->allocate(n * sizeof(std::uint16_t)));
  std::fill_n(rr_next_, n, kUnset);
  rr_marks_ = static_cast<Rng*>(
      arena_->allocate((n / kMarkEvery + 1) * sizeof(Rng)));
  Rng stream = rng_;
  for (std::size_t d = 0; d < n; ++d) {
    if (d % kMarkEvery == 0) new (rr_marks_ + d / kMarkEvery) Rng(stream);
    stream.next_u64();
  }
}

void PathSelector::ensure_ewma_stride(int alts) {
  if (alts <= ewma_stride_) return;
  const auto n = static_cast<std::size_t>(num_switches_);
  const auto old_s = static_cast<std::size_t>(ewma_stride_);
  const auto new_s = static_cast<std::size_t>(alts);
  ewma_.resize(n * new_s, -1.0);
  // Re-layout in place from the last row down (regions cannot overlap
  // forward when widening).
  for (std::size_t dst = n; dst-- > 0;) {
    for (std::size_t a = new_s; a-- > 0;) {
      ewma_[dst * new_s + a] = a < old_s ? ewma_[dst * old_s + a] : -1.0;
    }
  }
  ewma_stride_ = alts;
}

int PathSelector::pick(SwitchId dst_switch, int num_alternatives) {
  assert(num_alternatives > 0);
  if (num_alternatives == 1) return 0;
  switch (policy_) {
    case PathPolicy::kSingle:
      return 0;
    case PathPolicy::kRoundRobin: {
      if (rr_next_ == nullptr) draw_rotation_row();
      std::uint16_t& next = rr_next_[static_cast<std::size_t>(dst_switch)];
      if (next == kUnset) {
        // Random starting offsets spread the alternatives across sources
        // from the first message on.  Round-robin reads nothing else from
        // rng_, so d's offset is the d-th value of its stream, stepped to
        // from the mark below d and reduced once the pair's count is known.
        const auto d = static_cast<std::size_t>(dst_switch);
        Rng stream = rr_marks_[d / kMarkEvery];
        for (std::size_t i = d % kMarkEvery; i > 0; --i) stream.next_u64();
        next = static_cast<std::uint16_t>(
            static_cast<std::uint32_t>(stream.next_u64()) %
            static_cast<std::uint32_t>(num_alternatives));
      }
      // Advancing cyclically picks what the 32-bit counter modulo n this
      // replaces picked until that counter wrapped at 2^32, after 2^32 -
      // draw picks into one pair: P picks get there with chance P / 2^32.
      assert(next < num_alternatives);
      const int alt = next;
      next = static_cast<std::uint16_t>(alt + 1 == num_alternatives ? 0
                                                                    : alt + 1);
      return alt;
    }
    case PathPolicy::kRandom:
      return static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(num_alternatives)));
    case PathPolicy::kAdaptive: {
      ensure_ewma_stride(num_alternatives);
      const double* scores = ewma_row(dst_switch);
      if (rng_.next_bool(kExploreEps)) {
        return static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(num_alternatives)));
      }
      int best = 0;
      for (int i = 0; i < num_alternatives; ++i) {
        const double si = scores[i];
        const double sb = scores[best];
        if (si < 0) return i;  // unexplored alternative first
        if (si < sb) best = i;
      }
      return best;
    }
  }
  return 0;
}

void PathSelector::feedback(SwitchId dst_switch, int alternative,
                            TimePs latency) {
  if (policy_ != PathPolicy::kAdaptive) return;
  ensure_ewma_stride(alternative + 1);
  double& s = ewma_row(dst_switch)[alternative];
  const auto l = static_cast<double>(latency);
  s = (s < 0) ? l : (1.0 - kEwmaAlpha) * s + kEwmaAlpha * l;
}

}  // namespace itb
