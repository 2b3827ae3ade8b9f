// Discrete-event simulator core loop.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace itb {

/// Owns the clock and the event queue and drives the run loop.  Components
/// hold a reference to the Simulator and schedule trivially-copyable Event
/// records on it (see sim/calendar_queue.hpp); they must outlive the run.
/// Each event goes to the PodHandler registered for its kind: the Network,
/// TrafficGenerator, TraceReplayer or DeadlockWatchdog.  Events fire by
/// (time, seq): equal timestamps in scheduling order.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Return to the just-constructed state (clock at 0, empty queue, counters
  /// zeroed, no handlers), keeping queue capacity, so the next run is
  /// bit-identical to one on a fresh Simulator (see sim/workspace.hpp).
  void reset() {
    calendar_.clear();
    handlers_.fill(nullptr);
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

  /// Events served from the queue's heap rather than a lane since reset().
  [[nodiscard]] std::uint64_t queue_far_pops() const {
    return calendar_.far_pops();
  }

  /// Register `h` for every event of `kind`.  One handler per kind: a
  /// second, different one is a wiring bug (asserted).
  void set_handler(EventKind kind, PodHandler* h) {
    PodHandler*& slot = handlers_[static_cast<std::size_t>(kind)];
    assert(slot == nullptr || slot == h);
    slot = h;
  }

  /// The handler registered for `kind`, or null.
  [[nodiscard]] PodHandler* handler(EventKind kind) const {
    return handlers_[static_cast<std::size_t>(kind)];
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
  CalendarQueue calendar_;
  std::array<PodHandler*, kEventKinds> handlers_{};
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t causality_violations_ = 0;
};

}  // namespace itb
