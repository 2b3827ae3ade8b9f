// POD event record for the hot simulation path.
//
// The engine schedules trivially-copyable Event records that the network
// model dispatches through one switch.  Events fire by (time, seq), where
// seq is the scheduling order, so simultaneous events fire FIFO and every
// run is a pure function of its inputs.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace itb {

/// Harness-level engine selector (RunConfig::engine).  kPod runs one
/// Simulator: POD events over the calendar queue, with chunk-flow
/// coalescing.  kPodParallel shards one simulation across RunConfig::shards
/// lanes, each lane an ordinary Simulator driven by the conservative window
/// scheduler in sim/parallel_engine.hpp.
enum class EngineKind : std::uint8_t { kPod, kPodParallel };

[[nodiscard]] inline const char* to_string(EngineKind e) {
  switch (e) {
    case EngineKind::kPod: return "pod";
    case EngineKind::kPodParallel: return "pod_parallel";
  }
  return "?";
}

/// Event taxonomy of the POD engine (dispatched in Network::handle_event,
/// except kCallback which the Simulator runs itself).
enum class EventKind : std::uint8_t {
  kCallback,      // generic std::function slot (traffic gen, tests, ...)
  kChunkSent,     // chunk left the sender (ch, a = flits)
  kChunkArrived,  // chunk landed in the receiver buffer (ch, a = flits)
  kBurstArrived,  // coalesced delivery tail: all suppressed flits land (ch, a)
  kStopArrived,   // stop control flit reached the sender (ch)
  kGoArrived,     // go control flit reached the sender (ch)
  kGrantDone,     // routing delay elapsed on an output channel (ch)
  kItbReady,      // detection + DMA programming finished (p = Packet*)
};

/// Trivially-copyable event record.  `seq` is assigned by the queue at push
/// time and makes the (at, seq) order total; `ch`/`a`/`p` are payload whose
/// meaning depends on `kind`.
struct Event {
  TimePs at;
  std::uint64_t seq;
  void* p;
  std::int32_t ch;
  std::int32_t a;
  EventKind kind;
};

static_assert(sizeof(Event) <= 40, "keep the hot event record compact");

/// Receiver of non-callback POD events (implemented by Network).
class PodHandler {
 public:
  virtual void handle_event(const Event& e) = 0;

 protected:
  ~PodHandler() = default;
};

/// (time, seq) strict weak order of the calendar queue.
[[nodiscard]] inline bool event_before(const Event& a, const Event& b) {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

}  // namespace itb
