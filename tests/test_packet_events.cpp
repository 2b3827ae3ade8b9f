// Packet lifecycle as the tracer records it: exact milestone sequences for
// plain and in-transit routes, and aggregate consistency at scale.
#include <gtest/gtest.h>

#include <vector>

#include "core/route_builder.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "route/simple_routes.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

// The 5-switch fixture from test_network_itb: pair (3 -> 2) has a unique
// minimal path with one in-transit host on switch 4.
Topology itb_fixture() {
  Topology t(5, 8, "itb-fixture");
  t.connect_auto(0, 1);
  t.connect_auto(0, 2);
  t.connect_auto(1, 3);
  t.connect_auto(2, 4);
  t.connect_auto(3, 4);
  for (SwitchId s = 0; s < 5; ++s) t.attach_hosts(s, 2);
  return t;
}

/// Ring large enough that none of these tests wraps it.
constexpr std::size_t kCapacity = std::size_t{1} << 18;

/// The packet milestones the tracer saw, in order: everything but the
/// channel occupancy spans and ITB-pool spills.
std::vector<PacketTraceRecord> milestones(const PacketTracer& tracer) {
  EXPECT_EQ(tracer.dropped(), 0u);
  std::vector<PacketTraceRecord> out;
  for (const PacketTraceRecord& r : tracer.snapshot()) {
    if (r.kind == TraceKind::kChanAcquire ||
        r.kind == TraceKind::kChanRelease || r.kind == TraceKind::kSpill) {
      continue;
    }
    out.push_back(r);
  }
  return out;
}

TEST(PacketEvents, PlainRouteSequence) {
  Topology topo = make_mesh_2d(1, 3, 1);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  PacketTracer tracer;
  tracer.configure(kCapacity);
  net.set_tracer(&tracer);
  net.inject(0, 2, 512);
  sim.run_until(ms(1));

  const auto events = milestones(tracer);
  ASSERT_EQ(events.size(), 5u);  // inject, 3 headers, deliver
  EXPECT_EQ(events[0].kind, TraceKind::kInject);
  EXPECT_EQ(events[0].host, 0);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(events[i].kind, TraceKind::kHeader);
  }
  EXPECT_EQ(events[1].sw, 0);
  EXPECT_EQ(events[2].sw, 1);
  EXPECT_EQ(events[3].sw, 2);
  EXPECT_EQ(events[4].kind, TraceKind::kDeliver);
  EXPECT_EQ(events[4].host, 2);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t, events[i - 1].t);
    EXPECT_EQ(events[i].packet, events[0].packet);
  }
}

TEST(PacketEvents, ItbRouteSequence) {
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  PacketTracer tracer;
  tracer.configure(kCapacity);
  net.set_tracer(&tracer);
  // Host 6 (switch 3) -> host 4 (switch 2): leg 3-4 then 4-2, ITB at a
  // host of switch 4.
  net.inject(6, 4, 512);
  sim.run_until(ms(2));

  const auto events = milestones(tracer);
  std::vector<TraceKind> kinds;
  for (const auto& e : events) kinds.push_back(e.kind);
  EXPECT_EQ(kinds, (std::vector<TraceKind>{
                       TraceKind::kInject,
                       TraceKind::kHeader,    // switch 3
                       TraceKind::kHeader,    // switch 4
                       TraceKind::kEject,     // host on switch 4
                       TraceKind::kReinject,
                       TraceKind::kHeader,    // switch 4 again
                       TraceKind::kHeader,    // switch 2
                       TraceKind::kDeliver,
                   }));
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events[0].host, 6);
  EXPECT_EQ(events[1].sw, 3);
  EXPECT_EQ(events[2].sw, 4);
  EXPECT_EQ(topo.host(events[3].host).sw, 4);
  EXPECT_EQ(events[3].host, events[4].host);
  EXPECT_EQ(events[5].sw, 4);
  EXPECT_EQ(events[6].sw, 2);
  EXPECT_EQ(events.back().host, 4);
  // Detection + DMA delay separates ejection from readiness exactly.
  EXPECT_EQ(events[4].t - events[3].t,
            params.itb_detect_delay + params.itb_dma_delay);
}

TEST(PacketEvents, AggregateConsistencyUnderLoad) {
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kRoundRobin, 3);
  PacketTracer tracer;
  tracer.configure(kCapacity);
  net.set_tracer(&tracer);
  UniformPattern pattern(topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.03;
  TrafficGenerator gen(sim, net, pattern, cfg);
  gen.start();
  sim.run_until(us(400));
  gen.stop();
  sim.run_until(sim.now() + ms(10));

  std::uint64_t injected = 0, delivered = 0, headers = 0, ejected = 0,
                ready = 0;
  for (const PacketTraceRecord& r : milestones(tracer)) {
    switch (r.kind) {
      case TraceKind::kInject: ++injected; break;
      case TraceKind::kDeliver: ++delivered; break;
      case TraceKind::kHeader: ++headers; break;
      case TraceKind::kEject: ++ejected; break;
      case TraceKind::kReinject: ++ready; break;
      default: ADD_FAILURE() << "unexpected kind " << to_string(r.kind);
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(injected, net.packets_injected());
  EXPECT_EQ(delivered, net.packets_delivered());
  EXPECT_EQ(injected, delivered);
  EXPECT_EQ(ejected, ready) << "every ejection must become a re-injection";
  // Headers: one per switch visit; every packet visits >= 1 switch and
  // an ITB visit re-enters its switch.
  EXPECT_GE(headers, delivered);
}

TEST(PacketEvents, NoTracerMeansNoOverheadPath) {
  // Attaching a tracer must not change the run: same deliveries from the
  // same number of engine events.
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  struct Outcome {
    std::uint64_t delivered;
    std::uint64_t events;
    std::size_t records;
  };
  auto run = [&](bool with_tracer) {
    Simulator sim;
    MyrinetParams params;
    Network net(sim, topo, routes, params, PathPolicy::kSingle, 5);
    PacketTracer tracer;
    tracer.configure(kCapacity);
    if (with_tracer) net.set_tracer(&tracer);
    for (HostId h = 0; h < 16; ++h) {
      net.inject(h, static_cast<HostId>((h + 5) % 32), 512);
    }
    sim.run_until(ms(5));
    return Outcome{net.packets_delivered(), sim.events_executed(),
                   tracer.snapshot().size()};
  };
  const Outcome plain = run(false);
  const Outcome traced = run(true);
  EXPECT_EQ(plain.delivered, 16u);
  EXPECT_EQ(traced.delivered, plain.delivered);
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(plain.records, 0u);
  EXPECT_GT(traced.records, 0u);
}

}  // namespace
}  // namespace itb
