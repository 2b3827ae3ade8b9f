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
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/path_policy.hpp"
#include "core/route_set.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/arena.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/rng.hpp"
#include "sim/short_queue.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Milestones in a packet's life, reported through the optional packet
/// event sink (observability/debugging; zero cost when no sink is set).
enum class PacketEvent : std::uint8_t {
  kInjected,          // first enqueued at the source NIC
  kHeaderAtSwitch,    // routing control unit consumed the header byte
  kEjectedAtItb,      // recognised as in-transit at a host NIC
  kReinjectionReady,  // detection + DMA programming finished
  kDelivered,         // tail arrived at the destination NIC
};

[[nodiscard]] const char* to_string(PacketEvent e);

struct PacketEventRecord {
  TimePs time;
  std::uint64_t packet_id;
  PacketEvent event;
  SwitchId sw;   // kHeaderAtSwitch only
  HostId host;   // source / in-transit / destination host, by event
};

using PacketEventSink = std::function<void(const PacketEventRecord&)>;

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

class Network : public PodHandler, public ShardHooks {
 public:
  Network(Simulator& sim, const Topology& topo, const RouteSet& routes,
          const MyrinetParams& params, PathPolicy policy,
          std::uint64_t seed = 1);

  /// Event dispatch: one switch over EventKind, no type erasure.
  /// Registered with the Simulator by every reset().
  void handle_event(const Event& e) override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Rebind this network to a (possibly different) topology/route set and
  /// return every queue, ledger and counter to its just-constructed state,
  /// reusing channel/NIC/packet-storage capacity in place.  The owning
  /// Simulator must have been reset first — the POD handler is
  /// re-registered on it.  A run on a reset network is
  /// bit-identical to one on a freshly constructed network (same RNG
  /// streams, same (time, seq) event order) — the workspace determinism
  /// contract, enforced by test_workspace.
  ///
  /// Pass `par` (already configured with a PartitionPlan) to run this
  /// network sharded across the engine's lanes: every handler then executes
  /// on the worker thread owning the element it touches, cross-lane events
  /// travel through the engine's mailboxes, and deliveries are buffered per
  /// lane until flush_deliveries().  nullptr = ordinary serial operation.
  void reset(const Topology& topo, const RouteSet& routes,
             const MyrinetParams& params, PathPolicy policy,
             std::uint64_t seed = 1, ParallelEngine* par = nullptr);

  /// Mailbox drain (ShardHooks): apply a piggybacked flow announcement, then
  /// schedule the carried event on the draining lane's Simulator.
  void shard_apply_boundary(const BoundaryMsg& m) override;

  /// The Simulator that host `h`'s NIC-side callbacks must be scheduled on:
  /// the owning lane's in a sharded run, the serial Simulator otherwise.
  [[nodiscard]] Simulator& host_sim(HostId h) {
    return par_ == nullptr ? *sim_
                           : par_->lane(par_->plan().lane_of_host(h));
  }

  /// Sharded runs buffer DeliveryRecords per lane; this merges them by
  /// (deliver_time, lane) and replays them through the delivery callback,
  /// and absorbs the per-lane invariant recorders into invariants().  Call
  /// with the lanes quiescent (a window-sync point).  Serial: no-op.
  void flush_deliveries();

  /// Cross-lane deliveries at the exact same picosecond whose merge order
  /// is therefore not the serial order (see RunResult::boundary_ties).
  [[nodiscard]] std::uint64_t delivery_ties() const { return delivery_ties_; }

  /// Called for every packet delivered at its final destination.
  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Observe every packet milestone (header consumption per switch, ITB
  /// ejection/re-injection, delivery).  Pass nullptr to disable.
  void set_packet_event_sink(PacketEventSink sink) {
    event_sink_ = std::move(sink);
  }

  /// Attach a packet-lifecycle tracer (src/obs/trace.hpp).  Null disables;
  /// every hot-path hook is a single null test when disabled.  Cleared by
  /// reset().  Sharded runs instead pass the BASE of an array of one tracer
  /// per lane (each configured via PacketTracer::configure_lane): every
  /// hook then appends to the executing lane's ring, lock-free, stamping
  /// the shard key of the current event so merge_lane_traces() can rebuild
  /// the serial record order.
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  /// Attach a phase profiler (src/obs/profiler.hpp) timing event dispatch,
  /// route lookup, ledger audits and the metrics callback.  Null disables.
  /// Cleared by reset().  In a sharded run this profiler keeps the
  /// coordinator-side phases (ledger audits, delivery-replay metrics);
  /// set_lane_profilers() supplies the per-lane ones.
  void set_profiler(PhaseProfiler* prof) { prof_ = prof; }

  /// Sharded runs: base of an array of one PhaseProfiler per lane.  The
  /// hot per-event phases (event dispatch, route lookup) are timed into the
  /// executing lane's profiler — wall-clock attribution per worker thread,
  /// which is exactly the load-imbalance signal.  Cleared by reset().
  void set_lane_profilers(PhaseProfiler* base) { lane_profs_ = base; }

  /// Queue a message (ready in the source NIC's memory now) for injection.
  void inject(HostId src, HostId dst, int payload_bytes);

  // --- observability ----------------------------------------------------

  // Counters live per lane (one lane in serial operation) and are summed
  // here; every accessor below is cold and reads with the lanes quiescent.
  [[nodiscard]] std::uint64_t packets_injected() const {
    std::uint64_t n = 0;
    for (const LaneState& l : lane_) n += l.injected;
    return n;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const {
    std::uint64_t n = 0;
    for (const LaneState& l : lane_) n += l.delivered;
    return n;
  }
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return packets_injected() - packets_delivered();
  }
  [[nodiscard]] std::uint64_t itb_spills() const {
    std::uint64_t n = 0;
    for (const LaneState& l : lane_) n += l.itb_spills;
    return n;
  }
  [[nodiscard]] std::uint64_t flow_control_violations() const {
    std::uint64_t n = 0;
    for (const LaneState& l : lane_) n += l.fc_violations;
    return n;
  }
  /// Per-chunk arrival events elided by delivery tail-burst coalescing.
  /// Zero when coalesce_chunk_flow is off.
  [[nodiscard]] std::uint64_t chunk_events_coalesced() const {
    std::uint64_t n = 0;
    for (const LaneState& l : lane_) n += l.chunk_events_coalesced;
    return n;
  }
  /// Largest slack-buffer occupancy ever observed (flits).
  [[nodiscard]] int max_buffer_occupancy() const {
    int m = 0;
    for (const LaneState& l : lane_) m = m > l.max_occupancy ? m : l.max_occupancy;
    return m;
  }

  /// High-water mark of transient arena bytes handed to spilled containers
  /// since the last reset (inline ShortQueue storage is not counted).
  /// Sharded runs sum the per-lane arenas.
  [[nodiscard]] std::size_t arena_bytes_peak() const {
    std::size_t n = arena_.bytes_peak();
    if (par_ != nullptr) {
      for (const auto& a : extra_arenas_) n += a->bytes_peak();
    }
    return n;
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

  /// Flits currently queued at source NICs (injection backlog), across all
  /// hosts; grows without bound past saturation.
  [[nodiscard]] std::uint64_t source_backlog_packets() const;

  /// Bytes currently reserved across every NIC's ITB pool (time-series
  /// sampler: pool-occupancy signal).
  [[nodiscard]] std::int64_t itb_pool_used_total() const {
    std::int64_t total = 0;
    for (const Nic& n : nics_) total += n.itb_pool_used;
    return total;
  }

  /// Bytes currently reserved in one NIC's ITB pool (heatmap sampler:
  /// per-host occupancy signal; read at window-sync points).
  [[nodiscard]] std::int64_t itb_pool_used(HostId h) const {
    return nics_[static_cast<std::size_t>(h)].itb_pool_used;
  }

  /// Diagnostic dump of every busy channel (owner, progress, flow-control
  /// state) — used to investigate stalls in tests.
  void debug_dump(std::ostream& os) const;

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
    std::int64_t reserved_bytes = 0;  // ITB pool reservation (NIC entries)
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

  struct Channel {
    // static wiring
    TimePs prop_delay = 0;
    bool from_switch = false;   // sender is a switch input buffer
    bool into_switch = false;   // receiver is a switch input buffer
    SwitchId src_sw = kNoSwitch;
    SwitchId dst_sw = kNoSwitch;
    PortId dst_port = kNoPort;  // input port at dst_sw (into_switch)
    PortId src_port = kNoPort;  // output port at src_sw (from_switch)
    HostId src_host = kNoHost;
    HostId dst_host = kNoHost;

    // sender-side dynamic state
    Packet* owner = nullptr;
    ChannelId src_in_ch = -1;  // feeding input buffer (switch senders)
    // Delivery tail-burst coalescing: when the flow streams a packet's
    // final leg into a NIC, intermediate arrivals are pure sinks — suppress
    // them, accumulate their flits, and land everything with the tail chunk
    // as one kBurstArrived.
    bool coalesce_flow = false;
    int burst_flits = 0;       // suppressed flits awaiting the tail event
    // NIC senders: kNoHost when the flow streams from resident NIC memory
    // (a locally generated packet); otherwise the in-transit host whose
    // ejection entry bounds how much may be re-injected.  Snapshotted at
    // flow start because the packet's own leg counter advances as soon as
    // its header reaches the *next* in-transit host, long before this flow
    // finishes sending.
    HostId flow_eject_host = kNoHost;
    int flow_len = 0;          // flits this owner sends on this channel
    int sent = 0;
    bool sending = false;      // a chunk-transmit event is outstanding
    bool grant_pending = false;  // routing delay running, cannot send yet
    bool sender_stopped = false; // last flow-control word was "stop"

    // output arbitration (channels leaving a switch or a NIC).  These
    // FIFO/list members hold 1-4 elements in steady state, so they live
    // inline in the Channel and spill to the network's arena only under
    // deep backlogs — steady-state simulation never touches the heap.
    ShortQueue<Request, 2> requests;
    PortId rr_ptr = 0;

    // receiver-side state: the input FIFO this channel feeds
    ShortQueue<BufferEntry, 2> entries;
    int occupancy = 0;      // flits resident in the buffer
    bool stop_sent = false; // receiver has signalled stop upstream
    ShortQueue<Incoming, 2> incoming;  // announced flows in wire order

    // always-on ledgers (checked tier 1)
    std::int64_t wire_flits = 0;  // flits sent but not yet landed
    bool drop_next_go = false;    // test_drop_next_go fault armed

    // Sharded runs: which lane owns each half (equal except across a cut
    // cable).  Sender-half fields above belong to send_lane, receiver-half
    // fields to recv_lane; for a cross channel the wire ledger is carried
    // entirely by the receiver (credited at mailbox drain).
    std::int16_t send_lane = 0;
    std::int16_t recv_lane = 0;
    bool cross = false;
    // A cross channel's grant_done cannot push `incoming` on the receiver;
    // the announcement rides the flow's first kChunkArrived mailbox message
    // instead (applied at drain, before the arrival can execute).
    bool announce_pending = false;

    // statistics
    TimePs busy_accum = 0;
    TimePs stopped_accum = 0;
    TimePs stopped_since = -1;
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
  void dispatch_event(const Event& e);
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
  void emit_event(const Packet* p, PacketEvent ev, SwitchId sw, HostId host);

  /// Lifecycle hook shared by every trace site.  Disabled cost is the one
  /// null test on tracer_ (serial and sharded alike).  Sharded runs append
  /// to the executing lane's ring with the current event's shard key —
  /// lock-free, because only the owning worker writes a lane's ring.
  void trace(TraceKind kind, std::uint64_t packet, ChannelId ch, SwitchId sw,
             HostId host) {
    if (tracer_ == nullptr) return;
    if (par_ != nullptr) {
      Simulator& s = *shard::tl_sim;
      tracer_[shard::tl_lane].record_keyed(s.now(), s.current_key(), kind,
                                           packet, ch, sw, host);
    } else {
      tracer_->record(sim_->now(), kind, packet, ch, sw, host);
    }
  }

  /// Profiler for the calling thread's hot per-event phases: the lane's
  /// own profiler while sharded handlers run, the primary one serially.
  [[nodiscard]] PhaseProfiler* cur_prof() const {
    if (par_ == nullptr) return prof_;
    return lane_profs_ == nullptr
               ? nullptr
               : lane_profs_ + static_cast<std::size_t>(shard::tl_lane);
  }

  /// Schedule an engine step `delay` from now as a trivially copyable Event
  /// record (sharded: on the lane owning the half of `ch` it mutates).
  void sched_event(TimePs delay, EventKind kind, ChannelId ch, int a = 0);

  // Mutable engine state owned by one lane of a sharded run.  Serial
  // operation uses lane_[0] exclusively, so the serial hot path is the same
  // memory it always touched.  Elements are stable in a deque (ShortQueues
  // and Packet* point into them) and only ever touched by their owning
  // worker thread while lanes run.
  struct LaneState {
    // Packet arena: storage is stable (deque) and recycled via a free list,
    // so Packet* stays valid for a packet's whole lifetime.  A packet freed
    // on another lane joins that lane's free list; reset() re-sorts.
    std::deque<Packet> packet_storage;
    std::vector<Packet*> packet_free;
    std::uint64_t next_packet_id = 1;
    std::uint64_t id_tag = 0;  // lane << 48, OR'd into ids of sharded runs
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t itb_spills = 0;
    std::uint64_t fc_violations = 0;
    std::uint64_t chunk_events_coalesced = 0;
    std::uint64_t packet_heap_allocs = 0;
    int max_occupancy = 0;
    // Sharded runs buffer deliveries (time-ordered per lane) and invariant
    // records here; flush_deliveries() merges both into the primary sinks.
    std::vector<DeliveryRecord> deliveries;
    std::size_t merge_cursor = 0;
    InvariantRecorder checks;
  };

  /// The LaneState the calling thread may touch.  The serial path goes
  /// through a cached pointer (deque addresses are stable) — ln() sits on
  /// every hot counter bump and deque indexing is not free.
  LaneState& ln() {
    return par_ == nullptr ? *lane0_
                           : lane_[static_cast<std::size_t>(shard::tl_lane)];
  }
  /// The Simulator driving the calling thread's events.
  Simulator& cursim() {
    return par_ == nullptr ? *sim_ : *shard::tl_sim;
  }
  [[nodiscard]] const Simulator& cursim() const {
    return par_ == nullptr ? *sim_ : *shard::tl_sim;
  }
  /// Violation sink for the calling thread (lane recorder while sharded
  /// handlers run; the primary recorder on the serial/coordinator path).
  InvariantRecorder& recorder() {
    return par_ != nullptr && shard::tl_lane >= 0 ? ln().checks : checks_;
  }
  /// Spill arena owned by `lane` (lane 0 and serial use arena_).
  Arena& lane_arena(int lane) {
    return lane <= 0 ? arena_ : *extra_arenas_[static_cast<std::size_t>(lane - 1)];
  }
  [[nodiscard]] std::uint64_t total_heap_allocs() const {
    std::uint64_t n = arena_.heap_block_allocs();
    for (const auto& a : extra_arenas_) n += a->heap_block_allocs();
    for (const LaneState& l : lane_) n += l.packet_heap_allocs;
    return n;
  }

  // ---- members ----
  Simulator* sim_;
  const Topology* topo_ = nullptr;
  const RouteSet* routes_ = nullptr;
  MyrinetParams params_;

  // Spill target for every ShortQueue in channels_/nics_; rewound wholesale
  // by reset().  Its address must be stable, which Network's deleted
  // copy/move guarantees.  Lanes > 0 of a sharded run spill into their own
  // arena in extra_arenas_ instead (one allocator per touching thread).
  Arena arena_;
  std::vector<std::unique_ptr<Arena>> extra_arenas_;

  std::vector<Channel> channels_;
  std::vector<Nic> nics_;
  std::vector<ChannelId> out_channel_at_;  // flattened [switch*stride + port]
  std::size_t out_port_stride_ = 0;

  std::deque<LaneState> lane_;  // stable addresses; >= 1 element
  LaneState* lane0_ = nullptr;  // &lane_[0], refreshed by reset()

  DeliveryCallback on_delivery_;
  PacketEventSink event_sink_;
  PacketTracer* tracer_ = nullptr;   // null unless a run asked for tracing
                                     // (sharded: base of a per-lane array)
  PhaseProfiler* prof_ = nullptr;    // null unless a run asked for profiling
  PhaseProfiler* lane_profs_ = nullptr;  // sharded: base of per-lane array
  // The (arena blocks + packet growth) watermark captured at the last
  // reset — see heap_allocs_this_run.
  std::uint64_t heap_allocs_run_base_ = 0;
  std::uint64_t delivery_ties_ = 0;
  bool ledger_ = true;  // params.ledger_checks (always-on invariant tier)
  ParallelEngine* par_ = nullptr;  // non-null while sharded
  InvariantRecorder checks_;
};

}  // namespace itb
