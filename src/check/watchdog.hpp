// Channel-wait-graph deadlock watchdog (deep check).
//
// The up*/down* theorem the paper leans on is that legal routes induce an
// acyclic channel-dependency graph, and the ITB mechanism restores that
// acyclicity for minimal routes by ejecting packets at every down->up
// violation.  This watchdog checks the conclusion directly at runtime: it
// periodically snapshots the *wait* graph — which channels are blocked
// waiting on which — and searches it for cycles.
//
// Nodes are directed channels.  Edges exist only for blocking waits:
//  * the packet at the head of an input buffer holds a granted output
//    channel and can make no progress until that output drains
//    (in_ch -> out_ch);
//  * a queued output request blocks its input buffer the same way.
// Channels draining into a NIC have no outgoing edges: ejection and
// delivery sink unconditionally (a full ITB pool spills to host memory, it
// never blocks) — exactly the property that makes the ITB mechanism
// deadlock-free.  Transient waits (in-flight chunks, routing delays) are
// not edges, so a cycle is a genuine deadlock, not a busy moment.
//
// On detection the cycle is recorded once per watchdog into the Network's
// InvariantRecorder as kDeadlockCycle, with the full channel cycle dumped
// into the detail string; sampling continues so tests can also observe
// persistence via cycles_found().
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace itb {

class DeadlockWatchdog : public PodHandler {
 public:
  /// Registers for kWatchdogTick and starts sampling immediately, every
  /// `period` of simulated time, until disarm() or the simulator stops
  /// running events.
  DeadlockWatchdog(Simulator& sim, Network& net, TimePs period = us(10));

  DeadlockWatchdog(const DeadlockWatchdog&) = delete;
  DeadlockWatchdog& operator=(const DeadlockWatchdog&) = delete;
  ~DeadlockWatchdog() { disarm(); }

  /// Stop sampling (already-scheduled ticks become no-ops).
  void disarm() { armed_ = false; }

  /// Samples in which a cycle was present.
  [[nodiscard]] std::uint64_t cycles_found() const { return cycles_found_; }
  /// The most recent cycle, as a channel sequence (c0 waits on c1, ...,
  /// ck waits on c0).  Empty when no cycle has been seen.
  [[nodiscard]] const std::vector<ChannelId>& last_cycle() const {
    return last_cycle_;
  }

  /// One sample: build the wait graph and search for a cycle.  Returns
  /// true when a cycle is present.  Exposed for direct use in tests.
  bool sample();

 private:
  /// kWatchdogTick: sample and schedule the next tick while armed.
  void handle_event(const Event& e) override;

  Simulator* sim_;
  Network* net_;
  TimePs period_;
  bool armed_ = true;
  bool reported_ = false;
  std::uint64_t cycles_found_ = 0;
  std::vector<ChannelId> last_cycle_;
};

}  // namespace itb
