#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace itb {

void Simulator::schedule_fn(TimePs at, EventFn fn) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[static_cast<std::size_t>(slot)] = std::move(fn);
  } else {
    slot = static_cast<std::int32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  calendar_.push(at, EventKind::kCallback, /*ch=*/-1, /*a=*/slot,
                 /*p=*/nullptr);
}

void Simulator::run_callback_slot(std::int32_t slot) {
  // Move the callback out before running it: the callback may schedule more
  // events and grow/reuse the slab.
  EventFn fn = std::move(slots_[static_cast<std::size_t>(slot)]);
  slots_[static_cast<std::size_t>(slot)] = nullptr;
  free_slots_.push_back(slot);
  fn();
}

std::uint64_t Simulator::run_until(TimePs deadline) {
  std::uint64_t n = 0;
  Event e;
  while (calendar_.pop_if_at_most(deadline, e)) {
    if (e.at < now_) ++causality_violations_;
    now_ = e.at;
    if (e.kind == EventKind::kCallback) {
      run_callback_slot(e.a);
    } else {
      handler_->handle_event(e);
    }
    ++n;
  }
  executed_ += n;
  // Advance the clock to the deadline even if the queue drained early, so
  // that rate computations over [0, deadline] are well defined.
  if (deadline != kTimeNever && now_ < deadline &&
      calendar_.next_time() > deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace itb
