// PodHandler for simulator tests: registers itself for one event kind and
// hands every event of that kind to a callable, so a test can drive the
// Simulator without a Network.
#pragma once

#include <utility>

#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace itb {

template <class F>
class TestHandler final : public PodHandler {
 public:
  TestHandler(Simulator& sim, EventKind kind, F on_event)
      : on_event_(std::move(on_event)) {
    sim.set_handler(kind, this);
  }

  void handle_event(const Event& e) override { on_event_(e); }

 private:
  F on_event_;
};

}  // namespace itb
