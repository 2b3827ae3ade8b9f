// Trace export: PacketTracer ring -> Chrome trace-event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Mapping (see docs/OBSERVABILITY.md):
//  * pid 1 "channels": one thread per directed channel (named with
//    Network::channel_label).  Each acquire/release pair becomes a complete
//    ("X") slice — the per-hop occupancy timeline that makes congested
//    links visually obvious.
//  * pid 2 "packets": one async ("b"/"n"/"e") track per packet id carrying
//    the lifecycle milestones (inject, header, eject, spill, reinject,
//    deliver), all on tid 0.
// Timestamps are simulated picoseconds converted to the trace format's
// microseconds (exact: 1 ps = 1e-6 us, six decimals).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace itb {

class Network;
struct PacketTraceRecord;

/// Render trace records (chronological, e.g. PacketTracer::snapshot()) as
/// a Chrome trace-event JSON document.  `dropped` (ring overwrites) is
/// recorded in otherData so a truncated trace is self-describing.
[[nodiscard]] std::string trace_to_chrome_json(
    const std::vector<PacketTraceRecord>& records, const Network& net,
    std::uint64_t dropped);

}  // namespace itb
