// End-to-end properties across topologies, schemes, patterns and chunk
// sizes: conservation (everything injected is delivered after drain), flow
// control safety, forward progress under overload, and the paper's
// qualitative claims at small scale.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "metrics/link_util.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

Topology make_named(const std::string& name) {
  if (name == "torus4") return make_torus_2d(4, 4, 2);
  if (name == "express5") return make_torus_2d_express(5, 5, 2);
  if (name == "cplant") return make_cplant();
  if (name == "mesh33") return make_mesh_2d(3, 3, 2);
  Rng rng(1234);
  return make_irregular(10, 2, 5, rng);
}

class DrainProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, RoutingScheme, int>> {};

TEST_P(DrainProperty, EverythingInjectedIsDelivered) {
  const auto& [topo_name, scheme, chunk] = GetParam();
  Testbed tb(make_named(topo_name));
  Simulator sim;
  MyrinetParams params;
  params.chunk_flits = chunk;
  Network net(sim, tb.topo(), tb.routes(scheme), params, policy_of(scheme),
              99);
  UniformPattern pat(tb.topo().num_hosts());
  TrafficConfig tc;
  // Aggressive load to create real contention, scaled to the topology.
  tc.load_flits_per_ns_per_switch = 0.05;
  tc.payload_bytes = 512;
  tc.seed = 5;
  TrafficGenerator gen(sim, net, pat, tc);
  gen.start();
  sim.run_until(us(400));
  gen.stop();
  // Generous drain deadline; progress is also checked piecewise.
  std::uint64_t last_delivered = net.packets_delivered();
  for (int step = 0; step < 100 && net.packets_in_flight() > 0; ++step) {
    sim.run_until(sim.now() + us(200));
    if (net.packets_in_flight() == 0) break;
    ASSERT_GT(net.packets_delivered(), last_delivered)
        << "no forward progress: deadlock at step " << step;
    last_delivered = net.packets_delivered();
  }
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_delivered(), net.packets_injected());
  EXPECT_EQ(net.flow_control_violations(), 0u);
  EXPECT_LE(net.max_buffer_occupancy(), params.slack_buffer_flits);
}

std::string drain_case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, RoutingScheme, int>>&
        info) {
  std::string s = to_string(std::get<1>(info.param));
  for (auto& ch : s) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return std::get<0>(info.param) + "_" + s + "_c" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSchemes, DrainProperty,
    ::testing::Combine(::testing::Values("torus4", "express5", "mesh33",
                                         "irregular"),
                       ::testing::Values(RoutingScheme::kUpDown,
                                         RoutingScheme::kItbSp,
                                         RoutingScheme::kItbRr),
                       ::testing::Values(1, 8)),
    drain_case_name);

TEST(DrainCplant, AllSchemesDrain) {
  // CPLANT is the big irregular-ish topology; one combined run keeps the
  // suite fast while still covering it.
  for (const RoutingScheme scheme :
       {RoutingScheme::kUpDown, RoutingScheme::kItbRr}) {
    Testbed tb(make_cplant());
    Simulator sim;
    MyrinetParams params;
    Network net(sim, tb.topo(), tb.routes(scheme), params, policy_of(scheme));
    UniformPattern pat(tb.topo().num_hosts());
    TrafficConfig tc;
    tc.load_flits_per_ns_per_switch = 0.04;
    TrafficGenerator gen(sim, net, pat, tc);
    gen.start();
    sim.run_until(us(300));
    gen.stop();
    sim.run_until(sim.now() + ms(20));
    EXPECT_EQ(net.packets_in_flight(), 0u) << to_string(scheme);
    EXPECT_EQ(net.flow_control_violations(), 0u);
  }
}

class PatternDrain : public ::testing::TestWithParam<std::string> {};

TEST_P(PatternDrain, AllPatternsDrainOnTorusItbRr) {
  Testbed tb(make_torus_2d(4, 4, 4));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, tb.topo(), tb.routes(RoutingScheme::kItbRr), params,
              PathPolicy::kRoundRobin);
  std::unique_ptr<DestinationPattern> pat;
  const std::string name = GetParam();
  if (name == "uniform") {
    pat = std::make_unique<UniformPattern>(tb.topo().num_hosts());
  } else if (name == "bitrev") {
    pat = std::make_unique<BitReversalPattern>(tb.topo().num_hosts());
  } else if (name == "hotspot") {
    pat = std::make_unique<HotspotPattern>(tb.topo().num_hosts(), 7, 0.1);
  } else {
    pat = std::make_unique<LocalPattern>(tb.topo(), 3);
  }
  TrafficConfig tc;
  tc.load_flits_per_ns_per_switch = 0.05;
  TrafficGenerator gen(sim, net, *pat, tc);
  gen.start();
  sim.run_until(us(400));
  gen.stop();
  sim.run_until(sim.now() + ms(20));
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_delivered(), net.packets_injected());
  EXPECT_EQ(net.flow_control_violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Patterns, PatternDrain,
                         ::testing::Values("uniform", "bitrev", "hotspot",
                                           "local"));

TEST(OverloadProgress, NoDeadlockFarPastSaturation) {
  // 3x the saturation load: queues grow but the network keeps delivering.
  Testbed tb(make_torus_2d(4, 4, 4));
  for (const RoutingScheme scheme :
       {RoutingScheme::kUpDown, RoutingScheme::kItbSp, RoutingScheme::kItbRr}) {
    Simulator sim;
    MyrinetParams params;
    Network net(sim, tb.topo(), tb.routes(scheme), params, policy_of(scheme));
    UniformPattern pat(tb.topo().num_hosts());
    TrafficConfig tc;
    tc.load_flits_per_ns_per_switch = 0.3;
    TrafficGenerator gen(sim, net, pat, tc);
    gen.start();
    std::uint64_t last = 0;
    for (int step = 1; step <= 6; ++step) {
      sim.run_until(us(200) * step);
      EXPECT_GT(net.packets_delivered(), last) << to_string(scheme);
      last = net.packets_delivered();
    }
    EXPECT_EQ(net.flow_control_violations(), 0u);
  }
}

TEST(RootCongestion, UpdownConcentratesItbBalances) {
  // The paper's Figure 8 claim at small scale: under uniform traffic near
  // UP/DOWN saturation, UP/DOWN loads links near the root far above the
  // rest, while ITB-RR keeps the spread tight.
  Testbed tb(make_torus_2d(8, 8, 8));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.015;
  cfg.warmup = us(100);
  cfg.measure = us(300);
  cfg.collect_link_util = true;
  const RunResult ud = run_point(tb, RoutingScheme::kUpDown, pat, cfg);
  const RunResult rr = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  const auto s_ud = summarize_link_utilization(ud.link_util, tb.topo(), 0);
  const auto s_rr = summarize_link_utilization(rr.link_util, tb.topo(), 0);
  // UP/DOWN: hottest links are near the root and much hotter than
  // elsewhere.
  EXPECT_GT(s_ud.max_near_root, 0.30);
  EXPECT_GT(s_ud.max_near_root, 1.5 * s_ud.max_far_from_root);
  // ITB-RR: everything stays cool and flat (paper: all links < 12%).
  EXPECT_LT(s_rr.max_utilization, 0.25);
  EXPECT_LT(s_ud.fraction_below_10pct, 1.0);
  EXPECT_GT(s_ud.fraction_below_10pct, 0.35);
}

TEST(MessageSizes, QualitativelySimilarOrdering) {
  // §4.2: results for 32 and 1024-byte messages are qualitatively similar
  // to 512-byte ones.  Check ITB-RR accepts more than UP/DOWN at a load
  // past UP/DOWN saturation for all three sizes (small torus).
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  for (const int payload : {32, 512, 1024}) {
    RunConfig cfg;
    cfg.payload_bytes = payload;
    cfg.warmup = us(100);
    cfg.measure = us(300);
    // Short messages saturate earlier (routing latency dominates), so the
    // overload point is payload-dependent.
    cfg.load_flits_per_ns_per_switch = payload <= 32 ? 0.03 : 0.15;
    const RunResult ud = run_point(tb, RoutingScheme::kUpDown, pat, cfg);
    const RunResult rr = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    EXPECT_GT(rr.accepted, 0.95 * ud.accepted) << "payload " << payload;
    EXPECT_GT(rr.delivered, 100u);
  }
  // The quantitative ITB-beats-UP/DOWN claim for 512-byte messages is
  // asserted at the saturation point by Saturation.ItbBeatsUpdownOnSmallTorus
  // and at full scale by the bench binaries.
}

TEST(ItbUsage, MatchesStaticExpectation) {
  // Delivered-message ITB usage under uniform traffic approximates the
  // static per-pair average of the table (0.38 for the 8x8 torus with SP).
  Testbed tb(make_torus_2d(8, 8, 8));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.01;
  cfg.warmup = us(100);
  cfg.measure = us(400);
  const RunResult sp = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  EXPECT_NEAR(sp.avg_itbs, 0.38, 0.10);
  // RR rotates over all alternatives, whose mean in-transit count is
  // higher (paper: 0.54 vs 0.43).
  const RunResult rr = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  EXPECT_GT(rr.avg_itbs, sp.avg_itbs);
}

TEST(AdaptiveExtension, AtLeastAsGoodAsSingle) {
  // Future-work policy sanity: adaptive selection should not collapse.
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.warmup = us(100);
  cfg.measure = us(300);
  cfg.load_flits_per_ns_per_switch = 0.06;
  const RunResult sp = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  const RunResult ad = run_point(tb, RoutingScheme::kItbAdapt, pat, cfg);
  EXPECT_GT(ad.accepted, 0.8 * sp.accepted);
}

TEST(CalendarQueueWindow, LowLoadPaperTorusPointsRunFromTheRing) {
  // At low load every host's message interval exceeds the calendar
  // queue's horizon.  If no message lands within the first horizon, the
  // ring drains at start-up; a queue that does not re-anchor its window
  // then serves every later event from its far heap.  These seeds fell into
  // that mode (0.02 seeds 2 and 5 served all ~9M events of a 4 ms window
  // from the heap).  Only the per-host generator ticks belong there.
  Testbed tb(make_torus_2d(8, 8, 8));
  UniformPattern pat(tb.topo().num_hosts());
  const std::pair<double, std::uint64_t> points[] = {
      {0.005, 1}, {0.005, 2}, {0.005, 3}, {0.02, 2}, {0.02, 5}};
  for (const auto& [load, seed] : points) {
    RunConfig cfg;
    cfg.load_flits_per_ns_per_switch = load;
    cfg.seed = seed;
    cfg.warmup = us(150);
    cfg.measure = us(400);
    const RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
    ASSERT_GT(r.events, 0u);
    EXPECT_LT(r.queue_far_pops * 100, r.events)
        << "load " << load << " seed " << seed << ": " << r.queue_far_pops
        << " of " << r.events << " events came from the far heap";
  }
}

}  // namespace
}  // namespace itb
