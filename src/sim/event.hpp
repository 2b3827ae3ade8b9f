// POD event record for the hot simulation path.
//
// The engine schedules trivially-copyable Event records, and the Simulator
// hands each one to the PodHandler registered for its kind.  Events fire by
// (time, seq), where seq is the scheduling order, so simultaneous events
// fire FIFO and every run is a pure function of its inputs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace itb {

/// Harness-level engine selector (RunConfig::engine).  kPod, the only
/// value, runs one Simulator: POD events over the calendar queue, with
/// chunk-flow coalescing.  The enum is kept only so existing callers of
/// SimWorkspace::prepare keep compiling.
enum class EngineKind : std::uint8_t { kPod };

/// Event taxonomy.  The network kinds are handled by Network::handle_event;
/// the last three each by the one component that schedules them.
enum class EventKind : std::uint8_t {
  kChunkSent,     // chunk left the sender (ch, a = flits)
  kChunkArrived,  // chunk landed in the receiver buffer (ch, a = flits)
  kBurstArrived,  // coalesced delivery tail: all suppressed flits land (ch, a)
  kStopArrived,   // stop control flit reached the sender (ch)
  kGoArrived,     // go control flit reached the sender (ch)
  kGrantDone,     // routing delay elapsed on an output channel (ch)
  kItbReady,      // detection + DMA programming finished (p = Packet*)
  kGenTick,       // a host's next message is due (a = host; TrafficGenerator)
  kReplay,        // the next trace records are due (TraceReplayer)
  kWatchdogTick,  // deadlock watchdog sample (DeadlockWatchdog)
};

inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::kWatchdogTick) + 1;

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

/// Receiver of the events of the kinds it is registered for
/// (Simulator::set_handler).
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
