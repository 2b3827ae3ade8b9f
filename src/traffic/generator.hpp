// Open-loop message generation (§4.2): every host generates fixed-size
// messages at a constant rate; the aggregate offered load is expressed in
// the paper's unit, flits per nanosecond per switch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "traffic/patterns.hpp"

namespace itb {

struct TrafficConfig {
  /// Offered load in flits/ns/switch across the whole network (payload
  /// flits; header overhead rides on top, as in the paper's accounting).
  double load_flits_per_ns_per_switch = 0.01;
  int payload_bytes = 512;  // 1..kMaxPayloadBytes
  /// false = constant inter-arrival (paper); true = Poisson arrivals.
  bool poisson = false;
  std::uint64_t seed = 42;
};

/// Observer invoked for every generated message (used to capture traces;
/// see traffic/trace.hpp).
using MessageTap = std::function<void(TimePs, HostId src, HostId dst,
                                      int payload_bytes)>;

/// Each host's next message is a kGenTick event (a = host) on the
/// Simulator; start() registers the generator as that kind's handler.
class TrafficGenerator : public PodHandler {
 public:
  TrafficGenerator(Simulator& sim, Network& net,
                   const DestinationPattern& pattern, TrafficConfig cfg);

  /// Return the generator to the exact state the constructor would produce
  /// for (pattern, cfg) — same per-host RNG streams, counters zeroed, tap
  /// cleared — reusing the RNG vector's capacity.  The simulator and
  /// network bindings are kept (both are reset in place by the owning
  /// workspace).
  void reset(const DestinationPattern& pattern, TrafficConfig cfg);

  /// Install a tap that sees every injected message.
  void set_tap(MessageTap tap) { tap_ = std::move(tap); }

  /// Register for kGenTick and schedule the first generation event of every
  /// host (random phase within one interval, so hosts do not fire in
  /// lockstep).
  void start();

  /// Stop generating; already-queued packets drain normally.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t messages_generated() const { return generated_; }
  [[nodiscard]] std::uint64_t flits_generated() const {
    return messages_generated() * static_cast<std::uint64_t>(cfg_.payload_bytes);
  }
  /// Per-host inter-arrival time implied by the configured load.
  [[nodiscard]] TimePs interval() const { return interval_; }

 private:
  /// One host's kGenTick: inject its message and schedule the next.
  void handle_event(const Event& e) override;

  Simulator* sim_;
  Network* net_;
  const DestinationPattern* pattern_;
  TrafficConfig cfg_;
  TimePs interval_;
  bool stopped_ = false;
  std::uint64_t generated_ = 0;
  std::vector<Rng> host_rng_;
  MessageTap tap_;
};

}  // namespace itb
