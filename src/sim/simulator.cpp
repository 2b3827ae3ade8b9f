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
  if (shard_lane_ >= 0) {
    calendar_.push_keyed(at, next_shard_key(), EventKind::kCallback,
                         /*ch=*/-1, /*a=*/slot, /*p=*/nullptr);
  } else {
    calendar_.push(at, EventKind::kCallback, /*ch=*/-1, /*a=*/slot,
                   /*p=*/nullptr);
  }
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
  stop_requested_ = false;
  Event e;
  while (!stop_requested_ && calendar_.pop_if_at_most(deadline, e)) {
    if (e.at < now_) ++causality_violations_;
    now_ = e.at;
    if (shard_lane_ >= 0) {
      // Order-tie detection: adjacent events with equal (time, push time)
      // minted by different lanes are the one place the shard-key order is
      // free to differ from the serial push order (see next_shard_key).
      if (e.at == tie_at_ &&
          (e.seq >> kShardTimeShift) == (tie_key_ >> kShardTimeShift) &&
          (e.seq >> kShardCountBits) != (tie_key_ >> kShardCountBits)) {
        ++order_ties_;
      }
      tie_at_ = e.at;
      tie_key_ = e.seq;
    }
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

std::uint64_t Simulator::run_while(const std::function<bool()>& keep_going) {
  std::uint64_t n = 0;
  stop_requested_ = false;
  while (!calendar_.empty() && !stop_requested_ && keep_going()) {
    const Event e = calendar_.pop();
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
  return n;
}

}  // namespace itb
