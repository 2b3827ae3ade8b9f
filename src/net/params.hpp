// Physical and protocol parameters of the simulated Myrinet network.
// Defaults are the paper's measured values (§4.3-4.5).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace itb {

struct MyrinetParams {
  // --- links (§4.3) ---
  /// One flit (byte) every 6.25 ns: 160 MB/s links.
  TimePs flit_time = 6250;
  /// Short LAN cable: 4.92 ns/m; with 10 m cables the wire holds ~8 flits.
  double cable_delay_ps_per_m = 4920.0;

  // --- switches (§4.4) ---
  /// First-flit latency through the switch when the output is free.
  TimePs routing_delay = ns(std::int64_t{150});
  /// Slack buffer per input port.
  int slack_buffer_flits = 80;
  /// Stop control flit sent when the input buffer fills *over* this level.
  int stop_threshold_flits = 56;
  /// Go control flit sent when the buffer empties *below* this level.
  int go_threshold_flits = 40;

  // --- network interfaces (§4.5) ---
  /// Time from header arrival to recognising the ITB mark (44 bytes).
  TimePs itb_detect_delay = ns(std::int64_t{275});
  /// Additional time to program the re-injection DMA (32 more bytes).
  TimePs itb_dma_delay = ns(std::int64_t{200});
  /// In-transit buffer pool per NIC.
  std::int64_t itb_pool_bytes = 90 * 1024;
  /// Extra readiness delay when the pool is exhausted and the packet must
  /// be staged through host memory (the paper calls this "considerably"
  /// slower without quantifying it).
  TimePs host_memory_penalty = us(1);
  /// Re-inject in-transit packets before locally generated ones ("as soon
  /// as possible").
  bool itb_priority_over_injection = true;

  // --- packet format ---
  /// Non-route header flits (packet type byte).
  int type_bytes = 1;

  // --- engine ---
  /// Flits moved per simulation event.  1 = exact flit-level behaviour;
  /// 8 (the default) keeps every stop/go threshold crossing on a chunk
  /// boundary and cannot overflow the 80-flit slack buffer as long as every
  /// chunk is full-size (56 + 8 just-arrived + 8 in flight + 8 started
  /// before the stop lands = 80).  Values above 8 can overflow and are
  /// rejected.  Known artifact: a flow whose flit count is not a multiple
  /// of chunk_flits ends in a shorter tail chunk, and two commits can then
  /// fit inside one stop-propagation window; packets small enough to fit
  /// entirely in the slack buffer (payloads below ~128 bytes) stream
  /// tail-to-head at saturation and can exceed the budget by a few flits
  /// (bounded by two extra chunks).  The overflow is counted (never
  /// silent) and
  /// pinned by SlackSkid.SubChunkTailsCanOverflowByABoundedMargin; use
  /// chunk_flits = 1 for exact behaviour at such payloads.
  int chunk_flits = 8;

  /// Coalesce the per-chunk arrival events of a packet's final leg into a
  /// single tail event (false steps per chunk: the reference schedule the
  /// coalescing differential tests compare against).  Legal because those
  /// arrivals are pure sinks — a NIC applies no flow control, the header
  /// work happened on the first chunk, and nothing reads the entry until
  /// the tail delivers — so eliding them preserves the (time, push-order)
  /// schedule of every remaining event bit-for-bit.
  bool coalesce_chunk_flow = true;

  [[nodiscard]] TimePs cable_prop_delay(double length_m) const {
    return static_cast<TimePs>(cable_delay_ps_per_m * length_m + 0.5);
  }
};

}  // namespace itb
