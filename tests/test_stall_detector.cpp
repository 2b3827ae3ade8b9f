// The forward-progress watchdog, including a constructed true deadlock:
// four wormholes chasing each other around a ring with illegally cyclic
// routes — precisely the dependency cycle the up*/down* rule forbids.
#include <gtest/gtest.h>

#include <string>

#include "core/route_builder.hpp"
#include "core/route_set.hpp"
#include "net/network.hpp"
#include "net/stall_detector.hpp"
#include "route/simple_routes.hpp"
#include "sim/simulator.hpp"
#include "support/route_reference.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

// 4-switch ring, one host per switch.
Topology make_ring4() {
  Topology t(4, 4, "ring4");
  t.connect_auto(0, 1);
  t.connect_auto(1, 2);
  t.connect_auto(2, 3);
  t.connect_auto(3, 0);
  for (SwitchId s = 0; s < 4; ++s) t.attach_hosts(s, 1);
  return t;
}

// Routing table where every pair is reached CLOCKWISE, even when the
// counter-clockwise path is shorter.  The 3-hop routes create the cyclic
// channel dependency 0->1->2->3->0.
RouteSet make_cyclic_routes(const Topology& t) {
  RouteTable table(16);
  auto clockwise_port = [&](SwitchId from) {
    const SwitchId next = (from + 1) % 4;
    for (const PortId p : t.switch_ports_of(from)) {
      if (t.peer(from, p).sw == next) return p;
    }
    ADD_FAILURE() << "ring port missing";
    return PortId{0};
  };
  for (SwitchId s = 0; s < 4; ++s) {
    for (SwitchId d = 0; d < 4; ++d) {
      Route r;
      r.src_switch = s;
      r.dst_switch = d;
      RouteLeg leg;
      r.switches.push_back(s);
      for (SwitchId at = s; at != d; at = (at + 1) % 4) {
        leg.ports.push_back(clockwise_port(at));
        ++leg.switch_hops;
        r.switches.push_back((at + 1) % 4);
      }
      r.total_switch_hops = leg.switch_hops;
      r.legs.push_back(std::move(leg));
      table[pair_key(4, s, d)].push_back(std::move(r));
    }
  }
  return factorize(t, RoutingAlgorithm::kUpDown, 0, table);
}

TEST(StallDetector, QuietOnHealthyTraffic) {
  Topology topo = make_ring4();
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  int stalls = 0;
  StallDetector watchdog(sim, net, us(50),
                         [&](const std::string&) { ++stalls; });
  for (int i = 0; i < 20; ++i) {
    net.inject(0, 2, 512);
    net.inject(1, 3, 512);
    net.inject(2, 0, 512);
    net.inject(3, 1, 512);
  }
  sim.run_until(ms(2));
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(stalls, 0);
  EXPECT_FALSE(watchdog.stalled());
}

TEST(StallDetector, DetectsConstructedRoutingDeadlock) {
  // All four hosts simultaneously send a 512-byte worm three hops
  // clockwise.  Each worm grabs its first fabric channel and waits for
  // the next one, which its neighbour holds: a textbook cyclic channel
  // dependency.  The slack buffers (80 flits << 517-flit worms) fill,
  // stop&go freezes every sender, and nothing is ever delivered.
  Topology topo = make_ring4();
  RouteSet routes = make_cyclic_routes(topo);
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  std::string report;
  StallDetector watchdog(sim, net, us(50), [&](const std::string& r) {
    if (report.empty()) report = r;
  });
  for (HostId h = 0; h < 4; ++h) {
    net.inject(h, static_cast<HostId>((h + 3) % 4), 512);
  }
  sim.run_until(ms(2));
  EXPECT_TRUE(watchdog.stalled());
  EXPECT_GE(watchdog.stall_episodes(), 1);
  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_EQ(net.packets_in_flight(), 4u);
  // Even deadlocked, flow control must never overflow a slack buffer.
  EXPECT_EQ(net.flow_control_violations(), 0u);
  EXPECT_LE(net.max_buffer_occupancy(), 80);
  // The report carries the channel dump for post-mortems.
  EXPECT_NE(report.find("in flight"), std::string::npos);
  EXPECT_NE(report.find("owner=pkt"), std::string::npos);
}

TEST(StallDetector, LegalRoutesOnTheSameRingDoNotDeadlock) {
  // Control experiment: identical topology and demands, but up*/down*
  // legal routes (which refuse one of the ring directions somewhere).
  Topology topo = make_ring4();
  UpDown ud(topo, 0);
  RouteSet routes = build_updown_routes(topo, SimpleRoutes(topo, ud));
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  int stalls = 0;
  StallDetector watchdog(sim, net, us(50),
                         [&](const std::string&) { ++stalls; });
  for (HostId h = 0; h < 4; ++h) {
    net.inject(h, static_cast<HostId>((h + 3) % 4), 512);
  }
  sim.run_until(ms(2));
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_delivered(), 4u);
  EXPECT_EQ(stalls, 0);
}

TEST(StallDetector, DisarmStopsSampling) {
  Topology topo = make_ring4();
  RouteSet routes = make_cyclic_routes(topo);
  Simulator sim;
  MyrinetParams params;
  Network net(sim, topo, routes, params, PathPolicy::kSingle);
  int stalls = 0;
  StallDetector watchdog(sim, net, us(50),
                         [&](const std::string&) { ++stalls; });
  watchdog.disarm();
  for (HostId h = 0; h < 4; ++h) {
    net.inject(h, static_cast<HostId>((h + 3) % 4), 512);
  }
  sim.run_until(ms(1));
  EXPECT_EQ(stalls, 0) << "disarmed detector must stay silent";
}

}  // namespace
}  // namespace itb
