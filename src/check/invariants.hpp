// Checked-simulation invariant layer: structured violation records that the
// Network/Simulator hot path reports into.
//
// Two tiers of checking feed this recorder:
//  * Always-on ledgers (cheap integer comparisons inlined into the engine
//    steps): flit/credit conservation per channel, slack-buffer occupancy
//    bounds, ITB pool capacity, and source->sink packet-count conservation.
//  * Deep checks (the route-legality verifier in check/route_verify.hpp and
//    the wait-graph deadlock watchdog in check/watchdog.hpp) attached by the
//    harness when RunConfig::checked is set; the ITB_CHECKED build flips
//    that default on and additionally compiles paranoid per-event assertions
//    into the Network hot path (see ITB_DEEP_CHECK in network.cpp).
//
// This header is intentionally dependency-light (sim/time only) and fully
// inline, so itb_net can report into a recorder without linking against the
// deep-check library (itb_check), which itself links itb_net.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace itb {

/// Catalogue of checked invariants (docs/TESTING.md documents each one).
enum class InvariantKind : std::uint8_t {
  kFlitConservation,    // per-channel flit ledger out of balance
  kCreditConservation,  // stop/go protocol violated or a credit lost
  kBufferOverflow,      // slack-buffer occupancy above capacity
  kItbPoolOverflow,     // NIC in-transit pool over capacity / mis-accounted
  kPacketConservation,  // injected != delivered + in-flight census
  kDeadlockCycle,       // wait-graph watchdog found a cycle of blocked flows
  kIllegalRoute,        // installed route fails legality/minimality/split
  kCausality,           // an event executed before the simulator clock
};

inline constexpr int kNumInvariantKinds = 8;

[[nodiscard]] inline const char* to_string(InvariantKind k) {
  switch (k) {
    case InvariantKind::kFlitConservation: return "flit_conservation";
    case InvariantKind::kCreditConservation: return "credit_conservation";
    case InvariantKind::kBufferOverflow: return "buffer_overflow";
    case InvariantKind::kItbPoolOverflow: return "itb_pool_overflow";
    case InvariantKind::kPacketConservation: return "packet_conservation";
    case InvariantKind::kDeadlockCycle: return "deadlock_cycle";
    case InvariantKind::kIllegalRoute: return "illegal_route";
    case InvariantKind::kCausality: return "causality";
  }
  return "?";
}

/// One detected violation.  `id` identifies the offending object in the
/// kind's own namespace (channel id, host id, packet id, s*N+d pair key).
struct InvariantViolation {
  InvariantKind kind = InvariantKind::kFlitConservation;
  TimePs time = 0;
  std::int64_t id = -1;
  std::string detail;
};

/// Append-only violation sink.  Every violation is *counted*; only the
/// first kMaxStored carry their detail strings, so a pathological run
/// cannot exhaust memory while still reporting exact totals.
class InvariantRecorder {
 public:
  static constexpr std::size_t kMaxStored = 32;

  void record(InvariantKind kind, TimePs time, std::int64_t id,
              std::string detail) {
    ++counts_[static_cast<std::size_t>(kind)];
    ++total_;
    if (stored_.size() < kMaxStored) {
      stored_.push_back(InvariantViolation{kind, time, id, std::move(detail)});
    }
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(InvariantKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// The stored (first kMaxStored) violations, in detection order.
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return stored_;
  }

  void clear() {
    total_ = 0;
    for (auto& c : counts_) c = 0;
    stored_.clear();
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t counts_[kNumInvariantKinds] = {};
  std::vector<InvariantViolation> stored_;
};

}  // namespace itb
