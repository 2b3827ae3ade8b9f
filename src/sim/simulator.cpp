#include "sim/simulator.hpp"

namespace itb {

std::uint64_t Simulator::run_until(TimePs deadline) {
  std::uint64_t n = 0;
  Event e;
  while (calendar_.pop_if_at_most(deadline, e)) {
    if (e.at < now_) ++causality_violations_;
    now_ = e.at;
    const auto k = static_cast<std::size_t>(e.kind);
    assert(handlers_[k] != nullptr);
    handlers_[k]->handle_event(e);
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
