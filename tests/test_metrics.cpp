// Metric collectors: latency/throughput accounting and link utilization.
#include <gtest/gtest.h>

#include "core/route_builder.hpp"
#include "metrics/collector.hpp"
#include "metrics/link_util.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

constexpr TimePs F = 6250;

struct Rig {
  Topology topo = make_mesh_2d(1, 2, 2);
  UpDown ud{topo, 0};
  RouteSet routes{build_updown_routes(topo, SimpleRoutes(topo, ud))};
  Simulator sim;
  MyrinetParams params;
};

TEST(Collector, LatencyAndFlitAccounting) {
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  MetricsCollector m(rig.topo.num_switches());
  m.attach(net);
  net.inject(0, 2, 512);
  net.inject(1, 3, 256);
  rig.sim.run_until(ms(1));
  EXPECT_EQ(m.delivered(), 2u);
  EXPECT_EQ(m.delivered_flits(), 512u + 256u);
  EXPECT_GT(m.avg_latency_ns(), 0.0);
  EXPECT_GE(m.avg_latency_from_generation_ns(), m.avg_latency_ns());
  EXPECT_GT(m.p50_latency_ns(), 0.0);
  EXPECT_GE(m.p99_latency_ns(), m.p50_latency_ns());
  EXPECT_EQ(m.avg_itbs_per_message(), 0.0);
}

TEST(Collector, TailQuantileNotBelowMean) {
  // A message of 2^20 flits takes well over the histogram's 1 ms linear
  // range; p99 must still cover it rather than stop at 1 ms.
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  MetricsCollector m(rig.topo.num_switches());
  m.attach(net);
  net.inject(0, 2, 1 << 20);
  rig.sim.run_until(ms(100));
  ASSERT_EQ(m.delivered(), 1u);
  EXPECT_GT(m.avg_latency_ns(), 1e6);
  EXPECT_GE(m.p99_latency_ns(), m.avg_latency_ns());
  EXPECT_LE(m.p99_latency_ns(), m.net_latency().max() * 1.01);
}

TEST(Collector, AcceptedTrafficComputation) {
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  MetricsCollector m(rig.topo.num_switches());
  m.attach(net);
  net.inject(0, 2, 512);
  rig.sim.run_until(ms(1));
  // 512 flits in 1 ms over 2 switches = 0.256 flits/ns/switch... no:
  // 512 / 1e6 ns / 2 = 0.000256.
  EXPECT_NEAR(m.accepted_flits_per_ns_per_switch(rig.sim.now()), 0.000256,
              1e-9);
}

TEST(Collector, ResetWindowClears) {
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  MetricsCollector m(rig.topo.num_switches());
  m.attach(net);
  net.inject(0, 2, 512);
  rig.sim.run_until(ms(1));
  EXPECT_EQ(m.delivered(), 1u);
  m.reset_window(rig.sim.now());
  EXPECT_EQ(m.delivered(), 0u);
  EXPECT_EQ(m.delivered_flits(), 0u);
  EXPECT_EQ(m.avg_latency_ns(), 0.0);
  net.inject(2, 0, 512);
  rig.sim.run_until(ms(2));
  EXPECT_EQ(m.delivered(), 1u);
}

TEST(LinkUtil, SingleFlowUtilizationExact) {
  Rig rig;
  rig.params.chunk_flits = 1;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  net.inject(0, 2, 512);  // host 0 (switch 0) -> host 2 (switch 1)
  rig.sim.run_until(ms(1));
  const auto utils = measure_channel_utilization(net, ms(1));
  // Only fabric channels reported by default: 2 directions of 1 cable.
  ASSERT_EQ(utils.size(), 2u);
  // The fabric hop carries 514 flits (515 on the wire minus the header
  // byte stripped by switch 0).
  double expect = 514.0 * static_cast<double>(F) / static_cast<double>(ms(1));
  bool found_busy = false;
  for (const auto& u : utils) {
    if (u.from_sw == 0 && u.to_sw == 1) {
      EXPECT_NEAR(u.utilization, expect, 1e-9);
      found_busy = true;
    } else {
      EXPECT_EQ(u.utilization, 0.0);
    }
    EXPECT_FALSE(u.to_host);
  }
  EXPECT_TRUE(found_busy);
}

TEST(LinkUtil, HostLinksIncludedOnRequest) {
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  net.inject(0, 2, 512);
  rig.sim.run_until(ms(1));
  const auto utils = measure_channel_utilization(net, ms(1), true);
  EXPECT_EQ(utils.size(), 2u * static_cast<std::size_t>(rig.topo.num_cables()));
}

TEST(LinkUtil, SummaryStatistics) {
  const Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<HostId>(rng.next_below(32));
    auto d = static_cast<HostId>(rng.next_below(32));
    if (d == s) d = static_cast<HostId>((d + 1) % 32);
    net.inject(s, d, 512);
  }
  sim.run_until(ms(20));
  ASSERT_EQ(net.packets_in_flight(), 0u);
  const auto utils = measure_channel_utilization(net, ms(20));
  const auto sum = summarize_link_utilization(utils, topo, 0);
  EXPECT_GT(sum.max_utilization, 0.0);
  EXPECT_LE(sum.max_utilization, 1.0);
  EXPECT_GE(sum.max_utilization, sum.avg_utilization);
  EXPECT_GE(sum.fraction_below_10pct, 0.0);
  EXPECT_LE(sum.fraction_below_10pct, 1.0);
  EXPECT_GE(sum.max_near_root, sum.max_far_from_root * 0.0);  // both defined
}

TEST(LinkUtil, GridRenderingMentionsEverySwitch) {
  const Topology topo = make_torus_2d(4, 4, 1);
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  net.inject(0, 15, 512);
  sim.run_until(ms(1));
  const auto utils = measure_channel_utilization(net, ms(1));
  const std::string grid = render_grid_utilization(utils, topo);
  EXPECT_NE(grid.find("00>"), std::string::npos);
  EXPECT_NE(grid.find("15>"), std::string::npos);
  EXPECT_NE(grid.find('%'), std::string::npos);
}

TEST(LinkUtil, EmptyWindowYieldsNothing) {
  Rig rig;
  Network net(rig.sim, rig.topo, rig.routes, rig.params, PathPolicy::kSingle);
  EXPECT_TRUE(measure_channel_utilization(net, 0).empty());
}

}  // namespace
}  // namespace itb
