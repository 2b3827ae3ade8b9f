// Source-host path-selection policies.
//
// The paper evaluates two (single path and round-robin) and names adaptive
// selection at the source host as future work; kRandom and kAdaptive are
// provided as that extension and exercised by bench_adaptive_policy.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arena.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topo/types.hpp"

namespace itb {

enum class PathPolicy : std::uint8_t {
  kSingle,      // ITB-SP / UP-DOWN: always alternative 0
  kRoundRobin,  // ITB-RR: cycle through the alternatives per pair
  kRandom,      // uniformly random alternative per packet (extension)
  kAdaptive,    // latency-EWMA driven with epsilon exploration (extension)
};

[[nodiscard]] const char* to_string(PathPolicy p);

/// Per-source-NIC selection state.  `pick` chooses the alternative index
/// for a packet headed to `dst_switch`; `feedback` (used only by kAdaptive)
/// reports the measured network latency of a delivered packet so the source
/// can steer toward currently faster alternatives — the "adaptivity at the
/// source host" the paper's future-work section sketches.
///
/// kRoundRobin's rotation row (one 2-byte cursor per destination switch,
/// plus a stream mark every kMarkEvery destinations) is drawn from `arena`
/// on the first pick with more than one alternative, so it lives until the
/// arena's next rewind.  Most sources of a large network never make such a
/// pick in a point and never pay for a row.
class PathSelector {
 public:
  /// An empty selector (no destinations); reset() before use.
  PathSelector() = default;
  PathSelector(PathPolicy policy, int num_switches, std::uint64_t seed,
               Arena& arena);

  /// Return the selector to the exact state the corresponding constructor
  /// would produce: the same RNG stream and no rotation row yet.  The old
  /// row is dropped, not freed, so call this before rewinding the arena
  /// that holds it.  Part of the workspace-reuse determinism contract (see
  /// sim/workspace.hpp).
  void reset(PathPolicy policy, int num_switches, std::uint64_t seed,
             Arena& arena);

  [[nodiscard]] PathPolicy policy() const { return policy_; }

  int pick(SwitchId dst_switch, int num_alternatives);
  void feedback(SwitchId dst_switch, int alternative, TimePs latency);

 private:
  /// Draw the rotation row: every cursor unset, and the selector's stream
  /// state before destination k * kMarkEvery for each k.
  void draw_rotation_row();

  /// Grow the EWMA table's row stride to at least `alts` columns,
  /// re-laying existing rows out in place (new cells read "unexplored").
  void ensure_ewma_stride(int alts);

  [[nodiscard]] double* ewma_row(SwitchId dst_switch) {
    return ewma_.data() + static_cast<std::size_t>(dst_switch) *
                              static_cast<std::size_t>(ewma_stride_);
  }

  PathPolicy policy_ = PathPolicy::kSingle;
  Rng rng_;
  int num_switches_ = 0;
  Arena* arena_ = nullptr;            // rotation-row source; bound by reset()
  // Per destination switch, the next alternative modulo the pair's count
  // (a SpanRec count, at most 65535), or kUnset before the first pick.
  std::uint16_t* rr_next_ = nullptr;  // or no row drawn yet
  Rng* rr_marks_ = nullptr;
  static constexpr std::uint16_t kUnset = 0xffff;
  static constexpr int kMarkEvery = 128;  // < 128 steps per first pick
  // One flat num_switches x ewma_stride_ array (row-major, -1.0 means
  // unexplored) instead of a vector per destination: the same
  // pointer-chasing fix as the route store, selector-local.  The stride
  // grows lazily to the widest alternative count seen, preserving values.
  std::vector<double> ewma_;
  int ewma_stride_ = 0;
  static constexpr double kEwmaAlpha = 0.1;
  static constexpr double kExploreEps = 0.1;
};

}  // namespace itb
