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

  /// Events served from the calendar queue's far heap since reset().
  [[nodiscard]] std::uint64_t queue_far_pops() const {
    return calendar_.far_pops();
  }

  /// Register the receiver of non-callback POD events (the Network).  Must
  /// be set before any schedule_event_* call.
  void set_pod_handler(PodHandler* h) { handler_ = h; }

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
    calendar_.push(at, kind, ch, a, p);
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
};

}  // namespace itb
