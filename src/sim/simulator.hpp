// Discrete-event simulator core loop.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace itb {

/// Callback payload of schedule_in / schedule_at.  Captures should stay
/// within the small-buffer optimisation of std::function (one pointer plus
/// one word on libstdc++) to keep scheduling allocation-free.
using EventFn = std::function<void()>;

/// Owns the clock and the event queue and drives the run loop.  Components
/// hold a reference to the Simulator and schedule events on it; they must
/// outlive the run.
///
/// Trivially-copyable Event records go through the CalendarQueue and are
/// dispatched to the registered PodHandler (the Network).  schedule_in /
/// schedule_at park a callback in a slot slab and fire it through a
/// kCallback event, so generators, detectors and tests need no handler.
/// Events fire by (time, seq): equal timestamps in scheduling order.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Return the simulator to its just-constructed state (clock at 0, empty
  /// queue, counters zeroed, no pod handler), keeping queue/slab capacity.
  /// The next run is bit-identical to one on a fresh Simulator — the
  /// workspace-reuse determinism contract (see sim/workspace.hpp).
  void reset() {
    calendar_.clear();
    handler_ = nullptr;
    for (EventFn& fn : slots_) fn = nullptr;  // release captures, keep slab
    slots_.clear();
    free_slots_.clear();
    now_ = 0;
    executed_ = 0;
    causality_violations_ = 0;
    stop_requested_ = false;
    shard_lane_ = -1;
    key_t_ = -1;
    key_n_ = 0;
    tie_at_ = -1;
    tie_key_ = 0;
    order_ties_ = 0;
  }

  /// Current simulated time.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Total events executed so far (monotone; useful as a progress measure
  /// and as a runaway guard in tests).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Events that would have run before the current clock (always-on
  /// causality ledger; any non-zero value is a queue-ordering bug and is
  /// surfaced as an InvariantViolation by the harness).
  [[nodiscard]] std::uint64_t causality_violations() const {
    return causality_violations_;
  }

  /// Events pending right now (time-series sampler: queue-depth signal).
  [[nodiscard]] std::size_t queue_len() const { return calendar_.size(); }

  /// High-water mark of pending events across the run.
  [[nodiscard]] std::size_t peak_queue_len() const {
    return calendar_.peak_size();
  }

  /// Register the receiver of non-callback POD events (the Network).  Must
  /// be set before any schedule_event_* call.
  void set_pod_handler(PodHandler* h) { handler_ = h; }

  // --- shard mode (one lane of a conservative parallel run) -------------
  //
  // In shard mode every push is ordered by an explicit key instead of the
  // internal push counter:
  //
  //   key = push_time << 20 | pushing_lane << 14 | per-instant push count
  //
  // For events pushed and executed inside one lane this reproduces the
  // serial engine's (time, push order) contract exactly, because a lane's
  // push times are non-decreasing.  For events merged in from another lane
  // (sim/parallel_engine.hpp mailboxes) the key was computed by the
  // *pushing* lane, so the merged calendar orders local and remote events
  // by push time — the same comparison the serial global sequence number
  // encodes — and the only ordering freedom left is two pushes from
  // different lanes at the exact same picosecond (counted by order_ties()
  // and surfaced as RunResult::boundary_ties; zero means the sharded
  // schedule is bit-identical to the serial one).

  static constexpr int kShardCountBits = 14;  // pushes per lane per instant
  static constexpr int kShardLaneBits = 6;    // PartitionPlan::kMaxLanes = 64
  static constexpr int kShardTimeShift = kShardCountBits + kShardLaneBits;

  /// Enter shard mode as lane `lane` (call right after reset()).
  void enable_shard_keys(std::int32_t lane) {
    assert(lane >= 0 && lane < (1 << kShardLaneBits));
    shard_lane_ = lane;
  }
  [[nodiscard]] bool shard_keys_enabled() const { return shard_lane_ >= 0; }

  /// Key for an event being pushed right now by this lane.
  [[nodiscard]] std::uint64_t next_shard_key() {
    if (now_ != key_t_) {
      key_t_ = now_;
      key_n_ = 0;
    }
    assert(now_ >= 0 && now_ < (TimePs{1} << (62 - kShardTimeShift)));
    assert(key_n_ < (std::uint64_t{1} << kShardCountBits));
    return (static_cast<std::uint64_t>(now_) << kShardTimeShift) |
           (static_cast<std::uint64_t>(shard_lane_) << kShardCountBits) |
           key_n_++;
  }

  /// Schedule a POD event carrying a key minted by another lane (mailbox
  /// drain).  An `at` before this lane's clock would mean the conservative
  /// window was too wide; it is counted as a causality violation.
  void schedule_event_keyed_at(TimePs at, std::uint64_t key, EventKind kind,
                               std::int32_t ch, std::int32_t a = 0,
                               void* p = nullptr) {
    assert(shard_lane_ >= 0);
    if (at < now_) ++causality_violations_;
    calendar_.push_keyed(at, key, kind, ch, a, p);
  }

  /// Adjacent executed events with equal (time, push time) but different
  /// pushing lanes — the only schedule freedom the shard keys leave open.
  [[nodiscard]] std::uint64_t order_ties() const { return order_ties_; }

  /// Shard key of the event currently being dispatched (valid inside a
  /// handler while in shard mode; run_until records it before the
  /// dispatch).  This is what makes per-lane telemetry mergeable: every
  /// trace record stamped with (now, current_key) sorts into the exact
  /// serial total order, because keys are globally unique across lanes.
  [[nodiscard]] std::uint64_t current_key() const { return tie_key_; }

  /// Schedule `fn` `delay` picoseconds from now (delay >= 0).
  void schedule_in(TimePs delay, EventFn fn) {
    assert(delay >= 0);
    schedule_fn(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (at >= now()).
  void schedule_at(TimePs at, EventFn fn) {
    assert(at >= now_);
    schedule_fn(at, std::move(fn));
  }

  /// Schedule a POD event at absolute time `at`.
  void schedule_event_at(TimePs at, EventKind kind, std::int32_t ch,
                         std::int32_t a = 0, void* p = nullptr) {
    assert(at >= now_);
    if (shard_lane_ >= 0) {
      calendar_.push_keyed(at, next_shard_key(), kind, ch, a, p);
    } else {
      calendar_.push(at, kind, ch, a, p);
    }
  }

  /// Schedule a POD event `delay` picoseconds from now.
  void schedule_event_in(TimePs delay, EventKind kind, std::int32_t ch,
                         std::int32_t a = 0, void* p = nullptr) {
    assert(delay >= 0);
    schedule_event_at(now_ + delay, kind, ch, a, p);
  }

  /// Run until the queue drains or `deadline` is passed (events at exactly
  /// `deadline` still execute).  Returns the number of events executed by
  /// this call.
  std::uint64_t run_until(TimePs deadline = kTimeNever);

  /// Run while `keep_going()` is true (checked between events) and the queue
  /// is non-empty.  Used by the harness to stop after N measured messages.
  std::uint64_t run_while(const std::function<bool()>& keep_going);

  /// Ask a running run_* loop to stop after the current event.
  void request_stop() { stop_requested_ = true; }

 private:
  void schedule_fn(TimePs at, EventFn fn);
  void run_callback_slot(std::int32_t slot);

  CalendarQueue calendar_;
  PodHandler* handler_ = nullptr;
  // Parked callbacks for kCallback events: slot slab + free list, so
  // steady-state scheduling never allocates.
  std::vector<EventFn> slots_;
  std::vector<std::int32_t> free_slots_;
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t causality_violations_ = 0;
  bool stop_requested_ = false;
  // Shard mode (lane of a parallel run; -1 = normal serial operation).
  std::int32_t shard_lane_ = -1;
  TimePs key_t_ = -1;          // instant next_shard_key last reset for
  std::uint64_t key_n_ = 0;    // pushes at key_t_ so far
  TimePs tie_at_ = -1;         // (time, key) of the last popped event,
  std::uint64_t tie_key_ = 0;  // for order-tie detection in run_until
  std::uint64_t order_ties_ = 0;
};

}  // namespace itb
