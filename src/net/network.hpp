// Event-driven model of a Myrinet network: wormhole/cut-through switches
// with stop&go flow control, pipelined links, and NICs implementing source
// routing plus the in-transit buffer mechanism.
//
// Granularity: data moves in chunks of params.chunk_flits flits (default 8,
// chunk 1 = exact flit level).  All buffer accounting stays in flits; the
// engine never lets a slack buffer exceed its capacity (counted in
// `flow_control_violations`, asserted zero by the test suite).
//
// Model walk-through for one packet hop A -> B:
//  1. A's sender (NIC memory or A's input buffer at the previous switch)
//     streams chunks onto the channel whenever it has data and the last
//     flow-control word it saw was "go".
//  2. Each chunk lands in B's input slack buffer one propagation delay
//     after its last flit left A.  Crossing the 56-flit mark upward sends
//     "stop" back (it reaches A one propagation delay later); crossing the
//     40-flit mark downward sends "go".
//  3. When the packet's first flits reach the *head* of B's input FIFO, the
//     routing control unit strips the leading header byte and requests the
//     output port it names.  A free output is granted immediately; a busy
//     one queues the request and serves it in demand-slotted round-robin
//     order over the input ports.  150 ns after the grant the first flit
//     can leave the switch.
//  4. At a NIC, a packet on its final leg is delivered when its tail
//     arrives.  A packet with in-transit legs remaining reserves ITB pool
//     space (or takes the host-memory penalty) and becomes ready to
//     re-inject detect+DMA-program time after its header arrived; it then
//     competes for the NIC's injection channel (with priority over locally
//     generated packets) and streams out, never ahead of what has arrived.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/path_policy.hpp"
#include "core/route_store.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "obs/trace.hpp"
#include "sim/arena.hpp"
#include "sim/rng.hpp"
#include "sim/short_queue.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Snapshot of one delivered packet handed to the delivery callback.
struct DeliveryRecord {
  HostId src, dst;
  int payload_flits;
  TimePs gen_time, inject_time, deliver_time;
  int itbs_used;
  int alt_index;
  int total_switch_hops;
  bool spilled;
};

using DeliveryCallback = std::function<void(const DeliveryRecord&)>;

class Network : public PodHandler {
 public:
  Network(Simulator& sim, const Topology& topo, const RouteSet& routes,
          const MyrinetParams& params, PathPolicy policy,
          std::uint64_t seed = 1);

  /// Event dispatch: one switch over the seven network kinds, for which
  /// every reset() registers this network with the Simulator.
  void handle_event(const Event& e) override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Rebind this network to a (possibly different) topology/route set and
  /// return every queue, ledger and counter to its just-constructed state,
  /// reusing channel/NIC/packet-storage capacity in place.  The owning
  /// Simulator must have been reset first — the network kinds' handler is
  /// re-registered on it.  A run on a reset network is
  /// bit-identical to one on a freshly constructed network (same RNG
  /// streams, same (time, seq) event order) — the workspace determinism
  /// contract, enforced by test_workspace.
  void reset(const Topology& topo, const RouteSet& routes,
             const MyrinetParams& params, PathPolicy policy,
             std::uint64_t seed = 1);

  /// Called for every packet delivered at its final destination.
  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Attach a packet-lifecycle tracer (src/obs/trace.hpp).  Null disables;
  /// every hot-path hook is a single null test when disabled.  Cleared by
  /// reset().
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  /// Queue a message (ready in the source NIC's memory now) for injection.
  void inject(HostId src, HostId dst, int payload_bytes);

  // --- observability ----------------------------------------------------

  [[nodiscard]] std::uint64_t packets_injected() const { return injected_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return injected_ - delivered_;
  }
  [[nodiscard]] std::uint64_t itb_spills() const { return itb_spills_; }
  [[nodiscard]] std::uint64_t flow_control_violations() const {
    return fc_violations_;
  }
  /// Per-chunk arrival events elided by delivery tail-burst coalescing.
  /// Zero when coalesce_chunk_flow is off.
  [[nodiscard]] std::uint64_t chunk_events_coalesced() const {
    return chunk_events_coalesced_;
  }
  /// Largest slack-buffer occupancy ever observed (flits).
  [[nodiscard]] int max_buffer_occupancy() const { return max_occupancy_; }

  /// High-water mark of transient arena bytes handed to spilled containers
  /// since the last reset (inline ShortQueue storage is not counted).
  [[nodiscard]] std::size_t arena_bytes_peak() const {
    return arena_.bytes_peak();
  }
  /// Heap allocations the engine performed since the last reset: new arena
  /// blocks plus packet-storage growth.  Drops to zero once a reused
  /// workspace has warmed to the workload's high-water mark — the property
  /// RunResult::heap_allocs_steady_state surfaces.
  [[nodiscard]] std::uint64_t heap_allocs_this_run() const {
    return total_heap_allocs() - heap_allocs_run_base_;
  }

  /// Violations detected by the always-on ledgers (and recorded into by the
  /// deep checkers in src/check/, which share this sink).  The mutable
  /// overload exists for those checkers; the engine itself only appends.
  [[nodiscard]] const InvariantRecorder& invariants() const { return checks_; }
  [[nodiscard]] InvariantRecorder& invariants() { return checks_; }

  /// Cold-path conservation audit: recompute every buffer occupancy from
  /// its entries, every ITB pool level from its reservations, and the
  /// in-flight packet census, and record any mismatch.  With `quiescent`
  /// set (nothing should be in flight and no events pending) additionally
  /// require every wire ledger to read zero and flag stranded stop/go
  /// credits.  Called by the harness at the end of a measurement window
  /// and by tests after draining.
  void audit_invariants(bool quiescent = false);

  /// Snapshot of the channel wait graph for the deadlock watchdog: an edge
  /// (c, o) means channel c's input buffer cannot drain until output
  /// channel o drains (granted head-of-line flow or queued output
  /// request).  Channels draining into NICs sink unconditionally and get
  /// no edges — the ITB deadlock-freedom property in graph form.
  [[nodiscard]] std::vector<std::pair<ChannelId, ChannelId>> wait_graph_edges()
      const;

  /// "ch3(sw0:p1->sw2:p0)" — for watchdog cycle dumps and diagnostics.
  [[nodiscard]] std::string channel_label(ChannelId ch) const;

  // --- test-only fault injection ---------------------------------------
  // Deliberately corrupt engine state so the negative tests can prove each
  // ledger catches its failure mode.  Never called by the engine itself.

  /// Forge a "go" credit arriving on `ch` right now (credit duplication).
  void test_force_go(ChannelId ch);
  /// Drop the next "go" credit that arrives on `ch` (credit loss).
  void test_drop_next_go(ChannelId ch);
  /// Skew a buffer's occupancy ledger without moving any flits.
  void test_corrupt_occupancy(ChannelId ch, int delta);
  /// Skew a NIC's ITB pool accounting without a matching reservation.
  void test_corrupt_itb_pool(HostId h, std::int64_t delta);
  /// Skew the injected-packet counter (breaks source->sink conservation).
  void test_corrupt_injected(std::uint64_t delta);

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const MyrinetParams& params() const { return params_; }

  /// Cumulative transmit-busy time of a directed channel.
  [[nodiscard]] TimePs channel_busy_time(ChannelId ch) const {
    return channels_[static_cast<std::size_t>(ch)].busy_accum;
  }
  /// Cumulative time a channel's sender held a packet with data available
  /// but was stopped by flow control.
  [[nodiscard]] TimePs channel_stopped_time(ChannelId ch) const {
    return channels_[static_cast<std::size_t>(ch)].stopped_accum;
  }
  /// Zero the per-channel busy/stopped accumulators (start of a
  /// measurement window).
  void reset_channel_stats();

  /// Packets currently queued at source NICs (injection backlog), across
  /// all hosts; grows without bound past saturation.
  [[nodiscard]] std::uint64_t source_backlog_packets() const;

  /// Bytes currently reserved across every NIC's ITB pool (time-series
  /// sampler: pool-occupancy signal).
  [[nodiscard]] std::int64_t itb_pool_used_total() const {
    std::int64_t total = 0;
    for (const Nic& n : nics_) total += n.itb_pool_used;
    return total;
  }

  /// Bytes currently reserved in one NIC's ITB pool (heatmap sampler:
  /// per-host occupancy signal).
  [[nodiscard]] std::int64_t itb_pool_used(HostId h) const {
    return nics_[static_cast<std::size_t>(h)].itb_pool_used;
  }

 private:
  // ---- internal structures ----
  struct BufferEntry {
    Packet* pkt = nullptr;
    int total_flits = 0;      // flits that will arrive on this channel
    int arrived_raw = 0;      // flits arrived so far (incl. header byte)
    int forwarded = 0;        // post-strip flits already sent downstream
    bool header_done = false; // routing byte consumed / NIC header seen
    bool is_delivery = false; // NIC entry: final leg (deliver on completion)
    ChannelId out_ch = -1;    // granted output channel (switch buffers)
    std::int32_t reserved_bytes = 0;  // ITB pool reservation (NIC entries)
  };

  struct Request {
    ChannelId in_ch;
    PortId in_port;   // for demand-slotted round-robin
    Packet* pkt;
  };

  /// One flow announced on a channel, in wire order.  (std::pair is not
  /// trivially copyable, which ShortQueue elements must be.)
  struct Incoming {
    Packet* pkt = nullptr;
    int len = 0;
  };

  /// Hot scalars first: every sender, receiver and flow-control field that
  /// a chunk, stop/go or grant event reads fills the first 64 bytes, then
  /// the queues, then what is read once per packet or less (wiring,
  /// statistics, test hooks).  Grouping by size inside each part leaves no
  /// padding; network.cpp pins the size.  On a torus ITB-RR point this
  /// order timed level with the parent's 368 B layout, while an order
  /// grouped by role at the same 304 B read about 4% slower.
  struct Channel {
    Packet* owner = nullptr;   // flow being sent, or null
    TimePs prop_delay = 0;
    std::int64_t wire_flits = 0;  // ledger: flits sent but not yet landed
    TimePs busy_accum = 0;        // statistics: cumulative transmit time
    ChannelId src_in_ch = -1;  // feeding input buffer (switch senders)
    // NIC senders: kNoHost when the flow streams from resident NIC memory
    // (a locally generated packet); otherwise the in-transit host whose
    // ejection entry bounds how much may be re-injected.  Snapshotted at
    // flow start because the packet's own leg counter advances as soon as
    // its header reaches the *next* in-transit host, long before this flow
    // finishes sending.
    HostId flow_eject_host = kNoHost;
    int flow_len = 0;          // flits this owner sends on this channel
    int sent = 0;
    // Delivery tail-burst coalescing: when the flow streams a packet's
    // final leg into a NIC, intermediate arrivals are pure sinks — suppress
    // them, accumulate their flits, and land everything with the tail chunk
    // as one kBurstArrived.
    int burst_flits = 0;       // suppressed flits awaiting the tail event
    int occupancy = 0;         // flits resident in the input buffer
    bool coalesce_flow = false;
    bool sending = false;      // a chunk-transmit event is outstanding
    bool grant_pending = false;  // routing delay running, cannot send yet
    bool sender_stopped = false; // last flow-control word was "stop"
    bool from_switch = false;  // sender is a switch input buffer
    bool into_switch = false;  // receiver is a switch input buffer
    bool stop_sent = false;    // receiver has signalled stop upstream
    bool drop_next_go = false;  // test_drop_next_go fault armed

    // The input FIFO this channel feeds, the flows announced on it in wire
    // order, and output arbitration (channels leaving a switch or a NIC).
    // These hold 1-4 elements in steady state, so they live inline in the
    // Channel and spill to the network's arena only under deep backlogs —
    // steady-state simulation never touches the heap.
    ShortQueue<BufferEntry, 2> entries;
    ShortQueue<Incoming, 2> incoming;
    ShortQueue<Request, 2> requests;

    TimePs stopped_accum = 0;
    TimePs stopped_since = -1;
    SwitchId src_sw = kNoSwitch;
    SwitchId dst_sw = kNoSwitch;
    HostId src_host = kNoHost;
    HostId dst_host = kNoHost;
    PortId dst_port = kNoPort;  // input port at dst_sw (into_switch)
    PortId src_port = kNoPort;  // output port at src_sw (from_switch)
    PortId rr_ptr = 0;          // output arbitration's round-robin pointer
  };

  struct Nic {
    HostId id = kNoHost;
    SwitchId sw = kNoSwitch;
    ChannelId to_switch = -1;
    ChannelId from_switch = -1;
    ShortQueue<Packet*, 4> source_queue;  // generated, not yet injected
    ShortQueue<Packet*, 4> itb_queue;     // in-transit, ready to re-inject
    std::int64_t itb_pool_used = 0;
    PathSelector selector;  // reset in place across runs
  };

  // ---- engine steps ----
  void try_send(ChannelId ch);
  void chunk_sent(ChannelId ch, int k);
  void chunk_arrived(ChannelId ch, int k);
  void burst_arrived(ChannelId ch, int flits);
  void sender_done(ChannelId ch);
  void process_header(ChannelId in_ch);
  void request_output(ChannelId out_ch, ChannelId in_ch, PortId in_port,
                      Packet* pkt);
  void grant(ChannelId out_ch, ChannelId in_ch, Packet* pkt);
  void grant_done(ChannelId out_ch);
  void grant_next(ChannelId out_ch);
  void stop_arrived(ChannelId ch);
  void go_arrived(ChannelId ch);
  void nic_try_start(HostId h);
  void nic_header_arrived(ChannelId in_ch, BufferEntry& entry);
  void itb_ready(Packet* pkt);
  void deliver(ChannelId in_ch, BufferEntry& entry);
  [[nodiscard]] int sender_available(const Channel& c) const;

  Channel& chan(ChannelId ch) { return channels_[static_cast<std::size_t>(ch)]; }
  Nic& nic(HostId h) { return nics_[static_cast<std::size_t>(h)]; }
  [[nodiscard]] ChannelId out_channel(SwitchId sw, PortId port) const {
    return out_channel_at_[static_cast<std::size_t>(sw) * out_port_stride_ +
                           static_cast<std::size_t>(port)];
  }

  Packet* alloc_packet();
  void free_packet(Packet* p);

  /// Lifecycle hook shared by every trace site.  Disabled cost is the one
  /// null test on tracer_.
  void trace(TraceKind kind, std::uint64_t packet, ChannelId ch, SwitchId sw,
             HostId host) {
    if (tracer_ == nullptr) return;
    tracer_->record(sim_->now(), kind, packet, ch, sw, host);
  }

  /// Schedule an engine step `delay` from now as a trivially copyable Event
  /// record.
  void sched_event(TimePs delay, EventKind kind, ChannelId ch, int a = 0) {
    sim_->schedule_event_in(delay, kind, ch, a);
  }

  [[nodiscard]] std::uint64_t total_heap_allocs() const {
    return arena_.heap_block_allocs() + packet_heap_allocs_;
  }

  // ---- members ----
  Simulator* sim_;
  const Topology* topo_ = nullptr;
  const RouteSet* routes_ = nullptr;
  MyrinetParams params_;

  // Spill target for every ShortQueue in channels_/nics_ and source of each
  // NIC's round-robin rotation row; rewound wholesale by reset().  Its
  // address must be stable, which Network's deleted copy/move guarantees.
  Arena arena_;

  std::vector<Channel> channels_;
  std::vector<Nic> nics_;
  std::vector<ChannelId> out_channel_at_;  // flattened [switch*stride + port]
  std::size_t out_port_stride_ = 0;

  // Packet arena: storage is stable (deque) and recycled via a free list,
  // so Packet* stays valid for a packet's whole lifetime.
  std::deque<Packet> packet_storage_;
  std::vector<Packet*> packet_free_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t itb_spills_ = 0;
  std::uint64_t fc_violations_ = 0;
  std::uint64_t chunk_events_coalesced_ = 0;
  std::uint64_t packet_heap_allocs_ = 0;
  int max_occupancy_ = 0;

  DeliveryCallback on_delivery_;
  PacketTracer* tracer_ = nullptr;   // null unless a run asked for tracing
  // The (arena blocks + packet growth) watermark captured at the last
  // reset — see heap_allocs_this_run.
  std::uint64_t heap_allocs_run_base_ = 0;
  InvariantRecorder checks_;
};

}  // namespace itb
