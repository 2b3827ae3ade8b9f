// Message traces: recording, text round-trip, windows, and paired replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace.hpp"

namespace itb {
namespace {

TEST(MessageTrace, AddEnforcesTimeOrder) {
  MessageTrace t;
  t.add({100, 0, 1, 512});
  t.add({100, 1, 0, 512});
  t.add({200, 0, 2, 512});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.duration(), 200);
  EXPECT_THROW(t.add({50, 0, 1, 512}), std::invalid_argument);
}

TEST(MessageTrace, WindowFilters) {
  MessageTrace t;
  for (TimePs at = 0; at < 1000; at += 100) {
    t.add({at, 0, 1, 64});
  }
  const MessageTrace w = t.window(200, 500);
  EXPECT_EQ(w.size(), 3u);  // 200, 300, 400
  EXPECT_EQ(w.records().front().time, 200);
  EXPECT_EQ(w.records().back().time, 400);
}

TEST(MessageTrace, TextRoundTrip) {
  MessageTrace t;
  t.add({0, 3, 7, 512});
  t.add({12345, 1, 2, 1024});
  std::ostringstream os;
  t.write(os);
  std::istringstream is(os.str());
  const MessageTrace back = MessageTrace::read(is);
  EXPECT_EQ(back, t);
}

TEST(MessageTrace, ReadRejectsGarbage) {
  // Non-numbers, negative hosts and trailing tokens; the error names the
  // line.
  for (const char* text : {"12 not-a-host 3 64\n", "0 -1 1 512\n",
                           "0 1 -2 512\n", "0 1 2 512 junk\n",
                           "0 1 2 512junk\n"}) {
    std::istringstream is(std::string("0 0 1 64\n") + text);
    try {
      (void)MessageTrace::read(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "MessageTrace: malformed line 2") << text;
    }
  }
}

TEST(MessageTrace, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/itb_trace_test.trace";
  MessageTrace t;
  t.add({5, 0, 1, 32});
  t.save(path);
  EXPECT_EQ(MessageTrace::load(path), t);
  std::remove(path.c_str());
}

TEST(GeneratorTap, CapturesEveryMessage) {
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  UniformPattern pattern(topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  TrafficGenerator gen(sim, net, pattern, cfg);
  MessageTrace trace;
  gen.set_tap([&](TimePs at, HostId src, HostId dst, int bytes) {
    trace.add({at, src, dst, bytes});
  });
  gen.start();
  sim.run_until(ms(1));
  EXPECT_EQ(trace.size(), gen.messages_generated());
  EXPECT_GT(trace.size(), 50u);
}

TEST(TraceReplay, ReproducesTheRecordedRunExactly) {
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  MyrinetParams params;

  // Record a generator-driven run.
  MessageTrace trace;
  double recorded_latency = 0;
  std::uint64_t recorded_count = 0;
  {
    Simulator sim;
    Network net(sim, topo, routes, params, PathPolicy::kSingle, 11);
    MetricsCollector m(topo.num_switches());
    m.attach(net);
    UniformPattern pattern(topo.num_hosts());
    TrafficConfig cfg;
    cfg.load_flits_per_ns_per_switch = 0.03;
    cfg.seed = 77;
    TrafficGenerator gen(sim, net, pattern, cfg);
    gen.set_tap([&](TimePs at, HostId src, HostId dst, int bytes) {
      trace.add({at, src, dst, bytes});
    });
    gen.start();
    sim.run_until(us(500));
    gen.stop();
    sim.run_until(sim.now() + ms(5));
    recorded_latency = m.avg_latency_ns();
    recorded_count = m.delivered();
    ASSERT_EQ(net.packets_in_flight(), 0u);
  }

  // Replay the trace into a fresh network: identical deliveries.
  {
    Simulator sim;
    Network net(sim, topo, routes, params, PathPolicy::kSingle, 11);
    MetricsCollector m(topo.num_switches());
    m.attach(net);
    TraceReplayer replay(sim, net, trace);
    replay.start();
    sim.run_until(ms(10));
    EXPECT_EQ(net.packets_in_flight(), 0u);
    EXPECT_EQ(m.delivered(), recorded_count);
    EXPECT_EQ(replay.messages_replayed(), trace.size());
    EXPECT_DOUBLE_EQ(m.avg_latency_ns(), recorded_latency);
  }
}

TEST(TraceReplay, PairedSchemeComparison) {
  // The same trace replayed under UP/DOWN and ITB-RR: a paired experiment
  // where only routing differs.  At a moderate load both deliver all
  // messages; ITB latency must not blow up relative to UP/DOWN.
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet ud_routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  RouteSet itb_routes = build_itb_routes(topo, ud);
  MyrinetParams params;

  MessageTrace trace;
  {
    Simulator sim;
    Network net(sim, topo, ud_routes, params, PathPolicy::kSingle);
    UniformPattern pattern(topo.num_hosts());
    TrafficConfig cfg;
    cfg.load_flits_per_ns_per_switch = 0.02;
    TrafficGenerator gen(sim, net, pattern, cfg);
    gen.set_tap([&](TimePs at, HostId src, HostId dst, int bytes) {
      trace.add({at, src, dst, bytes});
    });
    gen.start();
    sim.run_until(us(400));
  }

  auto replay_with = [&](const RouteSet& routes, PathPolicy policy) {
    Simulator sim;
    Network net(sim, topo, routes, params, policy);
    MetricsCollector m(topo.num_switches());
    m.attach(net);
    TraceReplayer replay(sim, net, trace);
    replay.start();
    sim.run_until(ms(20));
    EXPECT_EQ(net.packets_in_flight(), 0u);
    return m.avg_latency_ns();
  };
  const double lat_ud = replay_with(ud_routes, PathPolicy::kSingle);
  const double lat_itb = replay_with(itb_routes, PathPolicy::kRoundRobin);
  EXPECT_GT(lat_ud, 0.0);
  EXPECT_GT(lat_itb, 0.0);
  EXPECT_LT(lat_itb, 2.0 * lat_ud);
}

TEST(TraceReplay, SkipsDegenerateRecords) {
  Topology topo = make_mesh_2d(1, 2, 1);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  MessageTrace trace;
  trace.add({0, 0, 0, 512});   // self: skipped
  trace.add({10, 0, 1, 0});    // empty payload: skipped
  trace.add({20, 0, 1, 512});  // real
  TraceReplayer replay(sim, net, trace);
  replay.start();
  sim.run_until(ms(1));
  EXPECT_EQ(replay.messages_replayed(), 1u);
  EXPECT_EQ(net.packets_delivered(), 1u);
  EXPECT_THROW(replay.start(), std::logic_error);
}

TEST(TraceReplay, RejectsRecordsTheNetworkCannotCarry) {
  // Hosts outside [0, num_hosts()) and payloads above kMaxPayloadBytes are
  // refused up front, naming the record, instead of reaching inject().
  Topology topo = make_mesh_2d(1, 2, 1);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  const TraceRecord bad[] = {{10, -1, 1, 512},
                             {10, 0, 2, 512},
                             {10, 2, 0, 512},
                             {10, 0, 1, kMaxPayloadBytes + 1}};
  for (const TraceRecord& r : bad) {
    MessageTrace trace;
    trace.add({0, 0, 1, 512});
    trace.add(r);
    try {
      TraceReplayer replay(sim, net, trace);
      ADD_FAILURE() << "accepted " << r.src << "->" << r.dst << " "
                    << r.payload_bytes << " B";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos)
          << e.what();
    }
  }
  MessageTrace at_limit;
  at_limit.add({0, 1, 0, kMaxPayloadBytes});
  EXPECT_NO_THROW(TraceReplayer(sim, net, at_limit));
}

}  // namespace
}  // namespace itb
