#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }
}  // namespace

// Deep per-event assertions (checked tier 2): compiled in only by the
// ITB_CHECKED build, where a failed condition records a violation instead
// of aborting, so a whole checked grid can report every deviation.
#ifdef ITB_CHECKED
#define ITB_DEEP_CHECK(cond, kind, id, msg)                         \
  do {                                                              \
    if (!(cond)) checks_.record((kind), sim_->now(), (id), (msg)); \
  } while (0)
#else
#define ITB_DEEP_CHECK(cond, kind, id, msg) \
  do {                                      \
  } while (0)
#endif

Network::Network(Simulator& sim, const Topology& topo, const RouteSet& routes,
                 const MyrinetParams& params, PathPolicy policy,
                 std::uint64_t seed)
    : sim_(&sim) {
  // A channel or buffer entry that outgrows these sizes costs memory on
  // every channel of a large network (80,496 on dragonfly16) and cache
  // footprint in the event loop; a field added on purpose raises the bound
  // with it.
  static_assert(sizeof(Channel) <= 304);
  static_assert(sizeof(BufferEntry) <= 32);
  reset(topo, routes, params, policy, seed);
}

void Network::reset(const Topology& topo, const RouteSet& routes,
                    const MyrinetParams& params, PathPolicy policy,
                    std::uint64_t seed) {
  if (params.chunk_flits < 1 || params.chunk_flits > 8) {
    throw std::invalid_argument(
        "Network: chunk_flits must be in [1, 8]; larger chunks could "
        "overflow the slack buffer before a stop takes effect");
  }
  if (routes.num_switches() != topo.num_switches()) {
    throw std::invalid_argument("Network: route set/topology mismatch");
  }
  topo_ = &topo;
  routes_ = &routes;
  params_ = params;
  for (const EventKind k :
       {EventKind::kChunkSent, EventKind::kChunkArrived,
        EventKind::kBurstArrived, EventKind::kStopArrived,
        EventKind::kGoArrived, EventKind::kGrantDone, EventKind::kItbReady}) {
    sim_->set_handler(k, this);
  }

  // --- wire up channels ---
  // Value-reinitialise every channel in place (Channel is trivially
  // copyable, so this reuses the vector's capacity); any arena-spilled
  // queue buffer is abandoned here and reclaimed by the rewind below.
  channels_.assign(idx(topo.num_channels()), Channel{});
  out_port_stride_ = idx(topo.ports_per_switch());
  out_channel_at_.assign(idx(topo.num_switches()) * out_port_stride_,
                         ChannelId{-1});
  for (CableId c = 0; c < topo.num_cables(); ++c) {
    const Cable& cb = topo.cable(c);
    const TimePs prop = params_.cable_prop_delay(cb.length_m);

    Channel& fwd = chan(topo.channel_from(c, true));  // A side -> B side
    fwd.prop_delay = prop;
    fwd.from_switch = true;
    fwd.src_sw = cb.a.sw;
    fwd.src_port = cb.a.port;
    out_channel_at_[idx(cb.a.sw) * out_port_stride_ + idx(cb.a.port)] =
        topo.channel_from(c, true);
    Channel& rev = chan(topo.channel_from(c, false));  // B side -> A side
    rev.prop_delay = prop;
    rev.into_switch = true;
    rev.dst_sw = cb.a.sw;
    rev.dst_port = cb.a.port;

    if (cb.to_host()) {
      fwd.into_switch = false;
      fwd.dst_host = cb.host;
      rev.from_switch = false;
      rev.src_host = cb.host;
    } else {
      fwd.into_switch = true;
      fwd.dst_sw = cb.b.sw;
      fwd.dst_port = cb.b.port;
      rev.from_switch = true;
      rev.src_sw = cb.b.sw;
      rev.src_port = cb.b.port;
      out_channel_at_[idx(cb.b.sw) * out_port_stride_ + idx(cb.b.port)] =
          topo.channel_from(c, false);
    }
  }

  // --- NICs ---
  Rng seeder(seed);
  nics_.resize(idx(topo.num_hosts()));
  for (HostId h = 0; h < topo.num_hosts(); ++h) {
    Nic& n = nic(h);
    n.id = h;
    const HostAttachment& at = topo.host(h);
    n.sw = at.sw;
    n.to_switch = topo.channel_from(at.cable, false);   // host is the B side
    n.from_switch = topo.channel_from(at.cable, true);
    n.source_queue.reset();
    n.itb_queue.reset();
    n.itb_pool_used = 0;
    n.selector.reset(policy, topo.num_switches(),
                     seeder.next_u64() ^ static_cast<std::uint64_t>(h),
                     arena_);
  }

  // Every spilled buffer and rotation row has been dropped above; recycle
  // the arena blocks.
  arena_.rewind();

  // Packet storage persists; rebuild the free list in reverse storage order
  // so alloc_packet hands slots out in first-fill order again.
  packet_free_.clear();
  packet_free_.reserve(packet_storage_.size());
  for (auto it = packet_storage_.rbegin(); it != packet_storage_.rend(); ++it) {
    packet_free_.push_back(&*it);
  }
  next_packet_id_ = 1;
  injected_ = 0;
  delivered_ = 0;
  itb_spills_ = 0;
  fc_violations_ = 0;
  chunk_events_coalesced_ = 0;
  max_occupancy_ = 0;

  on_delivery_ = nullptr;
  tracer_ = nullptr;
  checks_.clear();
  heap_allocs_run_base_ = total_heap_allocs();
}

void Network::handle_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kChunkSent: chunk_sent(e.ch, e.a); break;
    case EventKind::kChunkArrived: chunk_arrived(e.ch, e.a); break;
    case EventKind::kBurstArrived: burst_arrived(e.ch, e.a); break;
    case EventKind::kStopArrived: stop_arrived(e.ch); break;
    case EventKind::kGoArrived: go_arrived(e.ch); break;
    case EventKind::kGrantDone: grant_done(e.ch); break;
    case EventKind::kItbReady: itb_ready(static_cast<Packet*>(e.p)); break;
    case EventKind::kGenTick:
    case EventKind::kReplay:
    case EventKind::kWatchdogTick:
      assert(false && "not a network event kind");
      break;
  }
}

Packet* Network::alloc_packet() {
  if (!packet_free_.empty()) {
    Packet* p = packet_free_.back();
    packet_free_.pop_back();
    *p = Packet{};
    return p;
  }
  packet_storage_.emplace_back();
  ++packet_heap_allocs_;
  return &packet_storage_.back();
}

void Network::free_packet(Packet* p) { packet_free_.push_back(p); }

void Network::inject(HostId src, HostId dst, int payload_bytes) {
  assert(src != dst);
  assert(payload_bytes > 0);
  Packet* p = alloc_packet();
  p->id = next_packet_id_++;
  p->src = src;
  p->dst = dst;
  p->payload_flits = payload_bytes;
  p->gen_time = sim_->now();

  const SwitchId ssw = topo_->host(src).sw;
  const SwitchId dsw = topo_->host(dst).sw;
  const AltsView alts = routes_->alternatives(ssw, dsw);
  assert(!alts.empty());
  Nic& n = nic(src);
  p->alt_index = n.selector.pick(dsw, static_cast<int>(alts.size()));
  p->route = alts[idx(p->alt_index)];
  p->delivery_port = topo_->host(dst).port;
  p->leg_wire_flits = leg_start_wire_flits(p->route, 0, p->payload_flits,
                                           params_.type_bytes);
  ++injected_;
  n.source_queue.push_back(p, arena_);
  trace(TraceKind::kInject, p->id, -1, kNoSwitch, src);
  nic_try_start(src);
}

void Network::nic_try_start(HostId h) {
  Nic& n = nic(h);
  Channel& c = chan(n.to_switch);
  if (c.owner != nullptr) return;
  Packet* p = nullptr;
  bool from_itb_queue = false;
  if (params_.itb_priority_over_injection && !n.itb_queue.empty()) {
    p = n.itb_queue.front();
    n.itb_queue.pop_front();
    from_itb_queue = true;
  } else if (!n.source_queue.empty()) {
    p = n.source_queue.front();
    n.source_queue.pop_front();
  } else if (!n.itb_queue.empty()) {
    p = n.itb_queue.front();
    n.itb_queue.pop_front();
    from_itb_queue = true;
  }
  if (p == nullptr) return;
  c.owner = p;
  trace(TraceKind::kChanAcquire, p->id, n.to_switch, kNoSwitch, h);
  c.src_in_ch = -1;
  c.flow_len = p->leg_wire_flits;
  c.sent = 0;
  c.coalesce_flow = false;  // receiver is a switch: arrivals are observable
  c.burst_flits = 0;
  if (from_itb_queue) {
    // The leg being re-injected is p->current_leg *right now*; the ejection
    // that feeds it happened at the previous leg's end host.
    c.flow_eject_host =
        p->route.legs[idx(p->current_leg - 1)].end_host;
  } else {
    c.flow_eject_host = kNoHost;
    p->inject_time = sim_->now();
  }
  c.incoming.push_back(Incoming{p, c.flow_len}, arena_);
  try_send(n.to_switch);
}

int Network::sender_available(const Channel& c) const {
  if (c.from_switch) {
    const Channel& in = channels_[idx(c.src_in_ch)];
    assert(!in.entries.empty() && in.entries.front().pkt == c.owner);
    const BufferEntry& e = in.entries.front();
    assert(e.header_done);
    return (e.arrived_raw - 1) - c.sent;
  }
  // NIC sender.
  const Packet* p = c.owner;
  if (c.flow_eject_host == kNoHost) {
    return c.flow_len - c.sent;  // fully resident in NIC memory
  }
  // Re-injection: never ahead of what has been received on the previous
  // leg (minus the ITB mark byte, which is not re-injected).
  const Channel& in =
      channels_[idx(nics_[idx(c.flow_eject_host)].from_switch)];
  for (const BufferEntry& e : in.entries) {
    if (e.pkt == p) {
      const int avail = std::min(c.flow_len, e.arrived_raw - 1);
      return avail - c.sent;
    }
  }
  // The ejection entry must exist until re-injection completes.
  assert(false && "re-injection without ejection entry");
  return 0;
}

void Network::try_send(ChannelId ch) {
  Channel& c = chan(ch);
  if (c.owner == nullptr || c.sending || c.grant_pending || c.sender_stopped) {
    return;
  }
  const int avail = sender_available(c);
  assert(avail >= 0);
  if (avail == 0) return;
  const int k = std::min(params_.chunk_flits, avail);
  c.sending = true;
  sched_event(static_cast<TimePs>(k) * params_.flit_time,
              EventKind::kChunkSent, ch, k);
}

void Network::chunk_sent(ChannelId ch, int k) {
  Channel& c = chan(ch);
  assert(c.sending && c.owner != nullptr);
  c.sending = false;
  const bool first_chunk = (c.sent == 0);
  c.sent += k;
  c.busy_accum += static_cast<TimePs>(k) * params_.flit_time;
  c.wire_flits += k;

  if (c.from_switch) {
    Channel& in = chan(c.src_in_ch);
    BufferEntry& e = in.entries.front();
    assert(e.pkt == c.owner);
    e.forwarded += k;
    in.occupancy -= k;
    assert(in.occupancy >= 0);
    if (in.occupancy < 0) {
      checks_.record(InvariantKind::kFlitConservation, sim_->now(),
                        c.src_in_ch,
                        "buffer occupancy went negative on forward");
    }
    ITB_DEEP_CHECK(e.forwarded <= e.arrived_raw - 1,
                   InvariantKind::kFlitConservation, ch,
                   "forwarded flits ahead of arrivals (header excluded)");
    if (in.stop_sent && in.occupancy < params_.go_threshold_flits) {
      in.stop_sent = false;
      sched_event(in.prop_delay, EventKind::kGoArrived, c.src_in_ch);
    }
  }

  if (c.coalesce_flow && !first_chunk) {
    if (c.sent == c.flow_len) {
      // Tail chunk: land it together with every suppressed flit, pushed at
      // the exact moment the coalescing-off schedule pushes the tail
      // arrival.
      sched_event(c.prop_delay, EventKind::kBurstArrived, ch,
                  c.burst_flits + k);
    } else {
      // Intermediate delivery arrival: a pure sink — elide the event.
      c.burst_flits += k;
      ++chunk_events_coalesced_;
    }
  } else {
    // The first chunk always arrives as itself: it carries the header and
    // opens the receiver entry.
    sched_event(c.prop_delay, EventKind::kChunkArrived, ch, k);
  }

  if (c.sent == c.flow_len) {
    sender_done(ch);
  } else {
    try_send(ch);
  }
}

void Network::sender_done(ChannelId ch) {
  Channel& c = chan(ch);
  Packet* p = c.owner;
  trace(TraceKind::kChanRelease, p->id, ch, c.src_sw, c.src_host);

  if (c.from_switch) {
    Channel& in = chan(c.src_in_ch);
    assert(!in.entries.empty() && in.entries.front().pkt == p);
    assert(in.entries.front().forwarded == in.entries.front().total_flits - 1);
    in.entries.pop_front();
    // The next packet's header may already be waiting at the FIFO head.
    if (!in.entries.empty() && !in.entries.front().header_done &&
        in.entries.front().arrived_raw > 0) {
      process_header(c.src_in_ch);
    }
  } else {
    // NIC sender.
    Nic& n = nic(c.src_host);
    if (c.flow_eject_host != kNoHost) {
      // A re-injection finished: free the ITB pool reservation and drop the
      // ejection entry (NIC memory) of the previous leg.
      assert(c.flow_eject_host == c.src_host);
      Channel& in = chan(n.from_switch);
      auto it = std::find_if(in.entries.begin(), in.entries.end(),
                             [p](const BufferEntry& e) { return e.pkt == p; });
      assert(it != in.entries.end());
      n.itb_pool_used -= it->reserved_bytes;
      if (n.itb_pool_used < 0) {
        checks_.record(InvariantKind::kItbPoolOverflow, sim_->now(),
                          n.id, "ITB pool released below zero");
      }
      in.occupancy -= it->total_flits - it->forwarded;  // bookkeeping only
      in.entries.erase(it);
    }
  }

  c.owner = nullptr;
  c.src_in_ch = -1;
  c.flow_eject_host = kNoHost;
  c.flow_len = 0;
  c.sent = 0;
  c.coalesce_flow = false;
  c.burst_flits = 0;

  if (c.from_switch) {
    grant_next(ch);
  } else {
    nic_try_start(c.src_host);
  }
}

void Network::chunk_arrived(ChannelId ch, int k) {
  Channel& c = chan(ch);

  // Attach the chunk to the newest incomplete entry, or open a new entry
  // for the next packet announced on the wire.
  BufferEntry* entry = nullptr;
  if (!c.entries.empty() &&
      c.entries.back().arrived_raw < c.entries.back().total_flits) {
    entry = &c.entries.back();
  } else {
    assert(!c.incoming.empty());
    const auto [pkt, len] = c.incoming.front();
    c.incoming.pop_front();
    c.entries.push_back(BufferEntry{}, arena_);
    entry = &c.entries.back();
    entry->pkt = pkt;
    entry->total_flits = len;
  }
  entry->arrived_raw += k;
  c.occupancy += k;
  c.wire_flits -= k;
  if (c.wire_flits < 0) {
    checks_.record(InvariantKind::kFlitConservation, sim_->now(), ch,
                      "more flits landed than were sent on this channel");
  }
  ITB_DEEP_CHECK(entry->arrived_raw <= entry->total_flits,
                 InvariantKind::kFlitConservation, ch,
                 "entry overfilled beyond its announced wire length");

  if (c.into_switch) {
    // Only slack buffers have a capacity; NIC memory is modelled as an
    // unbounded sink (ejection must never block — §3 of the paper).
    if (c.occupancy > max_occupancy_) max_occupancy_ = c.occupancy;
    if (c.occupancy > params_.slack_buffer_flits) {
      ++fc_violations_;
      checks_.record(InvariantKind::kBufferOverflow, sim_->now(), ch,
                     "slack buffer at " + std::to_string(c.occupancy) +
                         " flits, capacity " +
                         std::to_string(params_.slack_buffer_flits));
    }
    if (!c.stop_sent && c.occupancy > params_.stop_threshold_flits) {
      c.stop_sent = true;
      sched_event(c.prop_delay, EventKind::kStopArrived, ch);
    }
    if (&c.entries.front() == entry && !entry->header_done) {
      process_header(ch);
    } else if (&c.entries.front() == entry && entry->header_done &&
               entry->out_ch >= 0) {
      try_send(entry->out_ch);
    }
  } else {
    // NIC receiver: always sinks; no flow control.
    if (!entry->header_done) nic_header_arrived(ch, *entry);
    if (entry->arrived_raw == entry->total_flits && entry->is_delivery) {
      deliver(ch, *entry);
      return;
    }
    // Wake a stalled re-injection waiting on this data.
    Nic& n = nic(c.dst_host);
    Channel& out = chan(n.to_switch);
    if (out.owner == entry->pkt) try_send(n.to_switch);
  }
}

void Network::burst_arrived(ChannelId ch, int flits) {
  // Coalesced delivery tail: the suppressed intermediate flits and the tail
  // chunk all land now, at the exact time the coalescing-off per-chunk
  // tail arrival fires.  The entry is necessarily the newest one on this NIC channel —
  // the next flow cannot start arriving before our sender released the
  // channel, which is also when this event was pushed.
  Channel& c = chan(ch);
  assert(!c.into_switch && c.dst_host != kNoHost);
  assert(!c.entries.empty());
  BufferEntry& e = c.entries.back();
  assert(e.header_done && e.is_delivery);
  e.arrived_raw += flits;
  c.occupancy += flits;
  c.wire_flits -= flits;
  if (c.wire_flits < 0) {
    checks_.record(InvariantKind::kFlitConservation, sim_->now(), ch,
                      "coalesced burst landed more flits than were sent");
  }
  assert(e.arrived_raw == e.total_flits);
  deliver(ch, e);
}

void Network::process_header(ChannelId in_ch) {
  Channel& in = chan(in_ch);
  BufferEntry& e = in.entries.front();
  assert(!e.header_done && e.arrived_raw > 0);
  e.header_done = true;
  in.occupancy -= 1;  // the routing byte is consumed by the control unit
  if (in.occupancy < 0) {
    checks_.record(InvariantKind::kFlitConservation, sim_->now(), in_ch,
                      "buffer occupancy went negative on header strip");
  }
  if (in.stop_sent && in.occupancy < params_.go_threshold_flits) {
    in.stop_sent = false;
    sched_event(in.prop_delay, EventKind::kGoArrived, in_ch);
  }
  Packet* p = e.pkt;
  trace(TraceKind::kHeader, p->id, in_ch, in.dst_sw, kNoHost);
  const PortId port = p->next_port();
  const ChannelId out_ch = out_channel(in.dst_sw, port);
  assert(out_ch >= 0 && "route names an unconnected port");
  ITB_DEEP_CHECK(chan(out_ch).src_sw == in.dst_sw,
                 InvariantKind::kIllegalRoute, in_ch,
                 "granted output does not leave the header's switch");
  request_output(out_ch, in_ch, in.dst_port, p);
}

void Network::request_output(ChannelId out_ch, ChannelId in_ch, PortId in_port,
                             Packet* pkt) {
  Channel& out = chan(out_ch);
  if (out.owner == nullptr) {
    out.rr_ptr = in_port;
    grant(out_ch, in_ch, pkt);
  } else {
    out.requests.push_back(Request{in_ch, in_port, pkt}, arena_);
  }
}

void Network::grant(ChannelId out_ch, ChannelId in_ch, Packet* pkt) {
  Channel& out = chan(out_ch);
  Channel& in = chan(in_ch);
  assert(out.owner == nullptr);
  assert(!in.entries.empty() && in.entries.front().pkt == pkt);
  out.owner = pkt;
  trace(TraceKind::kChanAcquire, pkt->id, out_ch, out.src_sw, kNoHost);
  out.src_in_ch = in_ch;
  out.flow_len = in.entries.front().total_flits - 1;
  out.sent = 0;
  // Final-leg flows into a NIC qualify for tail-burst coalescing: the
  // classification is stable from here until the header reaches the NIC
  // (current_leg only advances at in-transit hosts, before re-injection).
  out.coalesce_flow =
      params_.coalesce_chunk_flow && out.dst_host != kNoHost &&
      pkt->on_final_leg();
  out.burst_flits = 0;
  out.grant_pending = true;
  in.entries.front().out_ch = out_ch;
  sched_event(params_.routing_delay, EventKind::kGrantDone, out_ch);
}

void Network::grant_done(ChannelId out_ch) {
  Channel& out = chan(out_ch);
  assert(out.grant_pending && out.owner != nullptr);
  out.grant_pending = false;
  out.incoming.push_back(Incoming{out.owner, out.flow_len}, arena_);
  try_send(out_ch);
}

void Network::grant_next(ChannelId out_ch) {
  Channel& out = chan(out_ch);
  if (out.requests.empty()) return;
  // Demand-slotted round-robin over input ports: serve the pending request
  // whose input port follows the last-served port most closely.
  const int ports = topo_->ports_per_switch();
  std::size_t best = 0;
  int best_dist = ports + 1;
  for (std::size_t i = 0; i < out.requests.size(); ++i) {
    int d = (out.requests[i].in_port - out.rr_ptr - 1 + ports) % ports;
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  const Request req = out.requests[best];
  out.requests.erase(&out.requests[best]);
  out.rr_ptr = req.in_port;
  grant(out_ch, req.in_ch, req.pkt);
}

void Network::stop_arrived(ChannelId ch) {
  Channel& c = chan(ch);
  // Stop and go credits strictly alternate per channel (stop_sent guards
  // both send sites and the wire preserves order), so a repeated stop means
  // a credit was duplicated or lost somewhere.
  if (c.sender_stopped) {
    checks_.record(
        InvariantKind::kCreditConservation, sim_->now(), ch,
        "stop credit arrived while the sender was already stopped");
  }
  c.sender_stopped = true;
  if (c.owner != nullptr) c.stopped_since = sim_->now();
}

void Network::go_arrived(ChannelId ch) {
  Channel& c = chan(ch);
  if (c.drop_next_go) {  // test_drop_next_go fault: the credit is lost
    c.drop_next_go = false;
    return;
  }
  if (!c.sender_stopped) {
    checks_.record(InvariantKind::kCreditConservation, sim_->now(), ch,
                      "go credit arrived while the sender was not stopped");
  }
  c.sender_stopped = false;
  if (c.stopped_since >= 0) {
    c.stopped_accum += sim_->now() - c.stopped_since;
    c.stopped_since = -1;
  }
  try_send(ch);
}

void Network::nic_header_arrived(ChannelId in_ch, BufferEntry& entry) {
  entry.header_done = true;
  Packet* p = entry.pkt;
  if (p->on_final_leg()) {
    entry.is_delivery = true;
    return;
  }
  // In-transit packet: reserve buffer space and start the detection + DMA
  // programming pipeline.
  entry.is_delivery = false;
  ++p->itbs_used;
  trace(TraceKind::kEject, p->id, in_ch, kNoSwitch, chan(in_ch).dst_host);
  Nic& n = nic(chan(in_ch).dst_host);
  const std::int64_t need = entry.total_flits;  // one byte per flit
  TimePs ready_delay = params_.itb_detect_delay + params_.itb_dma_delay;
  if (n.itb_pool_used + need <= params_.itb_pool_bytes) {
    n.itb_pool_used += need;
    entry.reserved_bytes = entry.total_flits;
    if (n.itb_pool_used > params_.itb_pool_bytes) {
      checks_.record(InvariantKind::kItbPoolOverflow, sim_->now(), n.id,
                        "ITB pool reserved past capacity");
    }
  } else {
    // Pool exhausted: the MCP stages the packet through host memory.
    ++itb_spills_;
    p->spilled_to_host_memory = true;
    entry.reserved_bytes = 0;
    ready_delay += params_.host_memory_penalty;
    trace(TraceKind::kSpill, p->id, in_ch, kNoSwitch, n.id);
  }
  sim_->schedule_event_in(ready_delay, EventKind::kItbReady, /*ch=*/-1,
                             /*a=*/0, p);
}

void Network::itb_ready(Packet* p) {
  const LegView leg = p->route.legs[idx(p->current_leg)];
  const HostId host = leg.end_host;
  assert(host != kNoHost);
  p->current_leg += 1;
  p->hop_in_leg = 0;
  p->leg_wire_flits = leg_start_wire_flits(p->route, p->current_leg,
                                           p->payload_flits,
                                           params_.type_bytes);
  trace(TraceKind::kReinject, p->id, -1, kNoSwitch, host);
  Nic& n = nic(host);
  n.itb_queue.push_back(p, arena_);
  nic_try_start(host);
}

void Network::deliver(ChannelId in_ch, BufferEntry& entry) {
  Channel& c = chan(in_ch);
  Packet* p = entry.pkt;
  p->deliver_time = sim_->now();
  ++delivered_;
  if (delivered_ > injected_) {
    checks_.record(InvariantKind::kPacketConservation, sim_->now(),
                      static_cast<std::int64_t>(p->id),
                      "more packets delivered than injected");
  }
  trace(TraceKind::kDeliver, p->id, in_ch, kNoSwitch, p->dst);

  const DeliveryRecord rec{p->src, p->dst, p->payload_flits, p->gen_time,
                           p->inject_time, p->deliver_time, p->itbs_used,
                           p->alt_index, p->route.total_switch_hops,
                           p->spilled_to_host_memory};
  if (on_delivery_) on_delivery_(rec);
  // Close the adaptive-policy loop: the source learns the network latency
  // of the alternative it picked (models an acknowledgment path).
  nic(p->src).selector.feedback(p->route.dst_switch, p->alt_index,
                                p->deliver_time - p->inject_time);

  c.occupancy -= entry.total_flits;
  auto it = std::find_if(c.entries.begin(), c.entries.end(),
                         [p](const BufferEntry& e) { return e.pkt == p; });
  assert(it != c.entries.end());
  c.entries.erase(it);
  free_packet(p);
}

void Network::reset_channel_stats() {
  for (Channel& c : channels_) {
    c.busy_accum = 0;
    c.stopped_accum = 0;
    if (c.stopped_since >= 0) c.stopped_since = sim_->now();
  }
}

std::uint64_t Network::source_backlog_packets() const {
  std::uint64_t n = 0;
  for (const Nic& nc : nics_) n += nc.source_queue.size();
  return n;
}

std::string Network::channel_label(ChannelId ch) const {
  const Channel& c = channels_[idx(ch)];
  std::string s = "ch" + std::to_string(ch) + "(";
  s += c.from_switch
           ? "sw" + std::to_string(c.src_sw) + ":p" + std::to_string(c.src_port)
           : "host" + std::to_string(c.src_host);
  s += "->";
  s += c.into_switch
           ? "sw" + std::to_string(c.dst_sw) + ":p" + std::to_string(c.dst_port)
           : "host" + std::to_string(c.dst_host);
  return s + ")";
}

void Network::audit_invariants(bool quiescent) {
  const TimePs now = sim_->now();
  // Per-channel ledgers: every occupancy must equal the sum of its live
  // entries' resident flits, and no wire may have landed more than was sent.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& c = channels_[i];
    const auto ch = static_cast<ChannelId>(i);
    if (c.wire_flits < 0 || (quiescent && c.wire_flits != 0)) {
      checks_.record(InvariantKind::kFlitConservation, now, ch,
                     "wire ledger reads " + std::to_string(c.wire_flits) +
                         " flits at audit");
    }
    if (c.into_switch || c.dst_host != kNoHost) {
      std::int64_t expected = 0;
      for (const BufferEntry& e : c.entries) {
        // Switch buffers strip the routing byte and drain via `forwarded`;
        // NIC memory holds everything that arrived until delivery/erase.
        expected += c.into_switch
                        ? e.arrived_raw - (e.header_done ? 1 : 0) - e.forwarded
                        : e.arrived_raw;
      }
      if (expected != c.occupancy) {
        checks_.record(InvariantKind::kFlitConservation, now, ch,
                       "occupancy ledger reads " + std::to_string(c.occupancy) +
                           ", entries hold " + std::to_string(expected));
      }
      if (c.into_switch && c.occupancy > params_.slack_buffer_flits) {
        checks_.record(InvariantKind::kBufferOverflow, now, ch,
                       "slack buffer at " + std::to_string(c.occupancy) +
                           " flits at audit, capacity " +
                           std::to_string(params_.slack_buffer_flits));
      }
    }
    // A stopped sender whose receiver has no stop outstanding and no go in
    // flight will never resume: the credit was lost.  Only decidable at
    // quiescence — mid-run the go may legitimately be on the wire.
    if (quiescent && c.sender_stopped && !c.stop_sent) {
      checks_.record(InvariantKind::kCreditConservation, now, ch,
                     "sender stopped with no stop outstanding: go credit "
                     "lost");
    }
  }
  // ITB pools: the pool level must equal the sum of live reservations and
  // stay within capacity.
  for (const Nic& n : nics_) {
    std::int64_t reserved = 0;
    for (const BufferEntry& e : channels_[idx(n.from_switch)].entries) {
      reserved += e.reserved_bytes;
    }
    if (n.itb_pool_used != reserved || n.itb_pool_used < 0 ||
        n.itb_pool_used > params_.itb_pool_bytes) {
      checks_.record(InvariantKind::kItbPoolOverflow, now, n.id,
                     "pool ledger reads " + std::to_string(n.itb_pool_used) +
                         " bytes, live reservations total " +
                         std::to_string(reserved) + " (capacity " +
                         std::to_string(params_.itb_pool_bytes) + ")");
    }
  }
  // Source->sink packet conservation: every injected, undelivered packet
  // must be somewhere (a NIC queue, a buffer entry, a flow, or announced on
  // a wire), and nothing else may hold a live packet.
  std::unordered_set<const Packet*> live;
  for (const Nic& n : nics_) {
    for (const Packet* p : n.source_queue) live.insert(p);
    for (const Packet* p : n.itb_queue) live.insert(p);
  }
  for (const Channel& c : channels_) {
    if (c.owner != nullptr) live.insert(c.owner);
    for (const BufferEntry& e : c.entries) live.insert(e.pkt);
    for (const auto& [p, len] : c.incoming) live.insert(p);
  }
  const std::uint64_t injected = packets_injected();
  const std::uint64_t delivered = packets_delivered();
  const std::uint64_t in_flight = injected - delivered;
  if (delivered > injected || live.size() != in_flight) {
    checks_.record(InvariantKind::kPacketConservation, now,
                   static_cast<std::int64_t>(injected),
                   "census finds " + std::to_string(live.size()) +
                       " live packets, counters say " +
                       std::to_string(injected) + " injected - " +
                       std::to_string(delivered) + " delivered");
  }
}

std::vector<std::pair<ChannelId, ChannelId>> Network::wait_graph_edges()
    const {
  std::vector<std::pair<ChannelId, ChannelId>> edges;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& c = channels_[i];
    const auto ch = static_cast<ChannelId>(i);
    // Head-of-line flow: the front entry drains only through its granted
    // output.  NIC-bound channels sink unconditionally (out_ch stays -1).
    if (c.into_switch && !c.entries.empty()) {
      const BufferEntry& e = c.entries.front();
      if (e.header_done && e.out_ch >= 0) edges.emplace_back(ch, e.out_ch);
    }
    // Queued output requests: the requesting input buffer cannot drain
    // until this output frees up.
    for (const Request& r : c.requests) edges.emplace_back(r.in_ch, ch);
  }
  return edges;
}

void Network::test_force_go(ChannelId ch) { go_arrived(ch); }

void Network::test_drop_next_go(ChannelId ch) {
  chan(ch).drop_next_go = true;
}

void Network::test_corrupt_occupancy(ChannelId ch, int delta) {
  chan(ch).occupancy += delta;
}

void Network::test_corrupt_itb_pool(HostId h, std::int64_t delta) {
  nic(h).itb_pool_used += delta;
}

void Network::test_corrupt_injected(std::uint64_t delta) {
  injected_ += delta;
}

}  // namespace itb
