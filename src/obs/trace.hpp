// Packet-lifecycle tracer: a bounded ring buffer of POD trace records.
//
// The Network carries a `PacketTracer*` that is null unless a run asked for
// tracing (RunConfig::trace), so every hot-path hook compiles to a single
// predictable null test when tracing is disabled.  The benchmark suite
// records what tracing costs when enabled as obs.trace_overhead_frac
// (benchsuite/README.md).
//
// The buffer is bounded: once `capacity` records have been written the ring
// wraps and the oldest records are overwritten, keeping the most recent
// window of activity (the interesting part of a stall or saturation event)
// and counting every overwritten record in dropped().  Records are pure
// observers — recording never schedules events or perturbs the engine, so a
// traced run is bit-identical to an untraced one (asserted by test_obs and
// the golden fixtures).
//
// Workspace-reuse contract: configure() keeps the ring's storage when the
// capacity is unchanged, so repeated traced points in one workspace do not
// re-allocate, and a reused workspace produces a byte-identical trace to a
// fresh one (test_obs.TraceDeterministicAcrossWorkspaceReuse).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "topo/types.hpp"

namespace itb {

/// Milestones recorded by the tracer.  Channel acquire/release bracket the
/// time a packet owns a (unidirectional) channel — the per-hop occupancy
/// spans that the Perfetto exporter renders as one track per channel.
enum class TraceKind : std::uint8_t {
  kInject,       // packet enqueued at the source NIC (host = src)
  kChanAcquire,  // packet granted / started streaming on channel `ch`
  kChanRelease,  // packet's tail left channel `ch`
  kHeader,       // routing byte consumed at switch `sw`
  kEject,        // recognised as in-transit at host `host` (route split)
  kSpill,        // ITB pool exhausted: staged through host memory instead
  kReinject,     // detection + DMA done, queued for re-injection at `host`
  kDeliver,      // tail arrived at the destination NIC (host = dst)
};

[[nodiscard]] inline const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kInject: return "inject";
    case TraceKind::kChanAcquire: return "chan_acquire";
    case TraceKind::kChanRelease: return "chan_release";
    case TraceKind::kHeader: return "header";
    case TraceKind::kEject: return "eject";
    case TraceKind::kSpill: return "spill";
    case TraceKind::kReinject: return "reinject";
    case TraceKind::kDeliver: return "deliver";
  }
  return "?";
}

/// One trace record.  `ch` / `sw` / `host` are -1 when not applicable to
/// the kind.  Trivially copyable: the ring is a flat array and snapshots
/// are memcpy-clean.
struct PacketTraceRecord {
  TimePs t = 0;
  std::uint64_t packet = 0;
  ChannelId ch = -1;
  SwitchId sw = kNoSwitch;
  HostId host = kNoHost;
  TraceKind kind = TraceKind::kInject;
};
static_assert(sizeof(PacketTraceRecord) <= 32, "keep trace records compact");

class PacketTracer {
 public:
  /// Prepare a ring of `capacity` records, discarding any previous
  /// content.  Storage is reused when the capacity is unchanged (no
  /// steady-state allocation across reused workspaces).
  void configure(std::size_t capacity) {
    if (capacity == 0) capacity = 1;
    if (ring_.size() != capacity) {
      ring_.assign(capacity, PacketTraceRecord{});
    }
    recorded_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Total records observed since configure(), including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Records overwritten by ring wrap (recorded() - stored()).
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  /// Records currently held in the ring.
  [[nodiscard]] std::size_t stored() const {
    return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                    : ring_.size();
  }

  /// Hot-path append.  The Network calls it only while this tracer is
  /// attached, so the disabled cost is its single null-pointer test.
  void record(TimePs t, TraceKind kind, std::uint64_t packet, ChannelId ch,
              SwitchId sw, HostId host) {
    PacketTraceRecord& r = ring_[static_cast<std::size_t>(recorded_ % ring_.size())];
    r.t = t;
    r.packet = packet;
    r.ch = ch;
    r.sw = sw;
    r.host = host;
    r.kind = kind;
    ++recorded_;
  }

  /// Stored records in chronological order (oldest surviving record first).
  [[nodiscard]] std::vector<PacketTraceRecord> snapshot() const {
    std::vector<PacketTraceRecord> out;
    const std::size_t n = stored();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[slot(i)]);
    return out;
  }

 private:
  /// Ring index of the i-th stored record (oldest surviving first).  When
  /// wrapped, the oldest record sits at the write head.
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t head = static_cast<std::size_t>(recorded_ % ring_.size());
    return recorded_ > ring_.size() ? (head + i) % ring_.size() : i;
  }

  std::vector<PacketTraceRecord> ring_;
  std::uint64_t recorded_ = 0;
};

}  // namespace itb
