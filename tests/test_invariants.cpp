// Negative tests for the checked-simulation layer: every detector must
// actually fire on the failure mode it exists for, and nothing else.
//
//  * A hand-built illegal routing table (cyclic channel dependencies on a
//    4-switch ring, the textbook wormhole deadlock) must trip the
//    wait-graph watchdog with the exact 4-channel cycle — and neither a
//    legal workload nor a disarmed watchdog may.
//  * Each test_* fault-injection hook corrupts one piece of engine state;
//    the intended ledger — and only that ledger — must catch it.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "check/watchdog.hpp"
#include "core/route_builder.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "sim/simulator.hpp"
#include "support/route_reference.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: the 5-switch network from test_network_itb whose pair
// (3 -> 2) needs one in-transit buffer.  Hosts: switch s owns {2s, 2s+1}.
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

struct Rig {
  Topology topo;
  UpDown ud;
  RouteSet routes;
  Simulator sim;
  Network net;

  explicit Rig(MyrinetParams p = {})
      : topo(itb_fixture()),
        ud(topo, 0),
        routes(build_itb_routes(topo, ud)),
        net(sim, topo, routes, p, PathPolicy::kSingle) {}
};

/// Host->switch channel of host h (the one its NIC injects into).
ChannelId inject_channel(const Topology& t, HostId h) {
  return t.channel_from(t.host(h).cable, false);
}

// ---------------------------------------------------------------------------
// Deadlock watchdog

/// Output port of switch `a` leading to switch `b`.
PortId port_to(const Topology& t, SwitchId a, SwitchId b) {
  for (PortId p : t.switch_ports_of(a)) {
    if (t.peer(a, p).sw == b) return p;
  }
  ADD_FAILURE() << "no port " << a << "->" << b;
  return kNoPort;
}

/// 4-switch ring, one host per switch.
Topology ring4() {
  Topology t(4, 4, "ring4");
  t.connect_auto(0, 1);
  t.connect_auto(1, 2);
  t.connect_auto(2, 3);
  t.connect_auto(3, 0);
  for (SwitchId s = 0; s < 4; ++s) t.attach_hosts(s, 1);
  return t;
}

/// Clockwise 2-hop routes for the four antipodal pairs of ring4().  Every
/// route is minimal — but the channel dependency graph is the 4-cycle
/// sw0->sw1->sw2->sw3->sw0, so once each flow holds its first ring channel
/// and queues for the next, nothing can drain.  This is exactly the
/// configuration up*/down* (and ITB splitting) exists to exclude;
/// bypassing the route builder is the only way to create it.
RouteSet cyclic_antipodal_routes(const Topology& t) {
  RouteTable staged(16);
  for (SwitchId s = 0; s < 4; ++s) {
    const SwitchId via = (s + 1) % 4;
    const SwitchId d = (s + 2) % 4;
    Route r;
    r.src_switch = s;
    r.dst_switch = d;
    r.switches = {s, via, d};
    r.total_switch_hops = 2;
    RouteLeg leg;
    leg.ports = {port_to(t, s, via), port_to(t, via, d)};
    leg.switch_hops = 2;
    r.legs.push_back(leg);
    staged[pair_key(4, s, d)].push_back(r);
  }
  return factorize(t, RoutingAlgorithm::kUpDown, staged);
}

/// Every host of ring4() sends one packet to the antipodal host.  2048-byte
/// packets dwarf the 80-flit slack buffers, so on cyclic routes each flow
/// wedges.
void inject_antipodal(Network& net) {
  for (SwitchId s = 0; s < 4; ++s) {
    net.inject(/*src=*/s, /*dst=*/(s + 2) % 4, 2048);
  }
}

TEST(DeadlockWatchdog, CyclicRoutesOnRingAreCaughtWithTheExactCycle) {
  const Topology t = ring4();
  const RouteSet routes = cyclic_antipodal_routes(t);
  MyrinetParams p;
  Simulator sim;
  Network net(sim, t, routes, p, PathPolicy::kSingle);
  DeadlockWatchdog dog(sim, net, us(10));
  inject_antipodal(net);
  sim.run_until(ms(2));

  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_GT(dog.cycles_found(), 0u);
  // The deadlock persists: sampling again still finds it.
  EXPECT_TRUE(dog.sample());
  EXPECT_EQ(dog.last_cycle().size(), 4u);
  // Structured violation: recorded exactly once, with the cycle dumped.
  EXPECT_EQ(net.invariants().count(InvariantKind::kDeadlockCycle), 1u);
  EXPECT_EQ(net.invariants().total(), 1u);
  ASSERT_FALSE(net.invariants().violations().empty());
  const InvariantViolation& v = net.invariants().violations().front();
  EXPECT_EQ(v.kind, InvariantKind::kDeadlockCycle);
  EXPECT_NE(v.detail.find("wait-graph cycle:"), std::string::npos);
  EXPECT_NE(v.detail.find("sw"), std::string::npos);
  // The ledgers stay clean mid-deadlock: stalled, not corrupted.
  net.audit_invariants(false);
  EXPECT_EQ(net.invariants().total(), 1u);
}

TEST(DeadlockWatchdog, ConstructedDeadlockKeepsFlowControlIntact) {
  // Each worm grabs its first ring channel and waits for the next, which
  // its neighbour holds.  The slack buffers fill, stop&go freezes every
  // sender, and nothing is delivered — yet no buffer ever overflows.
  const Topology t = ring4();
  const RouteSet routes = cyclic_antipodal_routes(t);
  MyrinetParams p;
  Simulator sim;
  Network net(sim, t, routes, p, PathPolicy::kSingle);
  DeadlockWatchdog dog(sim, net, us(50));
  inject_antipodal(net);
  sim.run_until(ms(2));

  EXPECT_GT(dog.cycles_found(), 0u);
  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_EQ(net.packets_in_flight(), 4u);
  EXPECT_EQ(net.flow_control_violations(), 0u);
  EXPECT_LE(net.max_buffer_occupancy(), 80);
}

TEST(DeadlockWatchdog, UpDownRoutesOnTheSameRingDrainWithoutACycle) {
  // Control: same ring, same demands, but up*/down* legal routes, which
  // refuse one of the ring directions somewhere.
  const Topology t = ring4();
  const UpDown ud(t, 0);
  const RouteSet routes = build_updown_routes(t, SimpleRoutes(t, ud));
  MyrinetParams p;
  Simulator sim;
  Network net(sim, t, routes, p, PathPolicy::kSingle);
  DeadlockWatchdog dog(sim, net, us(10));
  inject_antipodal(net);
  sim.run_until(ms(2));

  EXPECT_EQ(net.packets_delivered(), 4u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(dog.cycles_found(), 0u);
  EXPECT_EQ(net.invariants().total(), 0u);
}

TEST(DeadlockWatchdog, QuietOnSustainedUpDownRingTraffic) {
  // Eighty worms in flight at once on the legal ring table: the watchdog
  // samples throughout and never sees a wait cycle.
  const Topology t = ring4();
  const UpDown ud(t, 0);
  const RouteSet routes = build_updown_routes(t, SimpleRoutes(t, ud));
  MyrinetParams p;
  Simulator sim;
  Network net(sim, t, routes, p, PathPolicy::kSingle);
  DeadlockWatchdog dog(sim, net, us(50));
  for (int i = 0; i < 20; ++i) {
    net.inject(0, 2, 512);
    net.inject(1, 3, 512);
    net.inject(2, 0, 512);
    net.inject(3, 1, 512);
  }
  sim.run_until(ms(2));

  EXPECT_EQ(net.packets_delivered(), 80u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(dog.cycles_found(), 0u);
  EXPECT_EQ(net.invariants().total(), 0u);
}

TEST(DeadlockWatchdog, DisarmedWatchdogRecordsNoCycle) {
  const Topology t = ring4();
  const RouteSet routes = cyclic_antipodal_routes(t);
  MyrinetParams p;
  Simulator sim;
  Network net(sim, t, routes, p, PathPolicy::kSingle);
  DeadlockWatchdog dog(sim, net, us(10));
  dog.disarm();
  inject_antipodal(net);
  sim.run_until(ms(1));

  EXPECT_EQ(dog.cycles_found(), 0u);
  EXPECT_EQ(net.invariants().count(InvariantKind::kDeadlockCycle), 0u)
      << "a disarmed watchdog must stay silent";
  // The deadlock is there all the same: one explicit sample sees it.
  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_TRUE(dog.sample());
}

TEST(DeadlockWatchdog, LegalItbWorkloadNeverTripsIt) {
  // Same checker, legal table (the up*/down* theorem in executable form):
  // heavy traffic through the ITB fixture must never form a wait cycle.
  Rig rig;
  DeadlockWatchdog dog(rig.sim, rig.net, us(5));
  for (int i = 0; i < 20; ++i) {
    rig.net.inject(6, 4, 1024);
    rig.net.inject(7, 5, 1024);
    rig.net.inject(0, 8, 1024);
  }
  rig.sim.run_until(ms(5));
  EXPECT_EQ(dog.cycles_found(), 0u);
  EXPECT_EQ(rig.net.packets_delivered(), 60u);
  EXPECT_EQ(rig.net.invariants().total(), 0u);
}

TEST(DeadlockWatchdog, IdleNetworkHasEmptyWaitGraph) {
  Rig rig;
  DeadlockWatchdog dog(rig.sim, rig.net, us(10));
  EXPECT_FALSE(dog.sample());
  EXPECT_TRUE(rig.net.wait_graph_edges().empty());
}

// ---------------------------------------------------------------------------
// Seeded faults, one per ledger.  Each asserts the intended InvariantKind
// fired AND that it is the only one — detection must be attributable.

TEST(SeededFault, LostGoCreditIsCaughtByTheCreditLedger) {
  // Two hosts on switch 3 contend for its output: the loser's injection
  // stream fills the input slack buffer and is stopped.  Dropping the "go"
  // that should resume it wedges the packet forever — invisible to every
  // per-event check, but the quiescent audit sees a stopped sender whose
  // receiver has no stop outstanding.
  MyrinetParams p;
  p.chunk_flits = 1;
  // No tail-burst coalescing: the wedged flow would otherwise strand its
  // suppressed arrivals on the wire ledger, a second (truthful, but
  // unattributable) symptom of the same fault.
  p.coalesce_chunk_flow = false;
  Rig rig(p);
  rig.net.test_drop_next_go(inject_channel(rig.topo, 7));
  rig.net.inject(6, 4, 512);
  rig.net.inject(7, 4, 512);
  rig.sim.run_until(ms(50));
  ASSERT_LT(rig.net.packets_delivered(), 2u) << "fault did not take effect";
  EXPECT_EQ(rig.net.invariants().total(), 0u) << "nothing fires mid-run";
  rig.net.audit_invariants(/*quiescent=*/true);
  EXPECT_EQ(rig.net.invariants().count(InvariantKind::kCreditConservation),
            1u);
  EXPECT_EQ(rig.net.invariants().total(), 1u);
}

TEST(SeededFault, DuplicatedGoCreditIsCaughtByTheCreditLedger) {
  Rig rig;
  rig.net.test_force_go(inject_channel(rig.topo, 6));
  EXPECT_EQ(rig.net.invariants().count(InvariantKind::kCreditConservation),
            1u);
  EXPECT_EQ(rig.net.invariants().total(), 1u);
}

TEST(SeededFault, OverfilledItbPoolIsCaughtByThePoolAudit) {
  Rig rig;
  rig.net.audit_invariants(true);
  ASSERT_EQ(rig.net.invariants().total(), 0u);
  rig.net.test_corrupt_itb_pool(8, rig.net.params().itb_pool_bytes + 1);
  rig.net.audit_invariants(true);
  EXPECT_EQ(rig.net.invariants().count(InvariantKind::kItbPoolOverflow), 1u);
  EXPECT_EQ(rig.net.invariants().total(), 1u);
}

TEST(SeededFault, SkewedOccupancyIsCaughtByTheFlitLedger) {
  Rig rig;
  rig.net.test_corrupt_occupancy(inject_channel(rig.topo, 0), 3);
  rig.net.audit_invariants(false);
  EXPECT_EQ(rig.net.invariants().count(InvariantKind::kFlitConservation), 1u);
  EXPECT_EQ(rig.net.invariants().total(), 1u);
}

TEST(SeededFault, SkewedPacketCounterIsCaughtByTheCensus) {
  Rig rig;
  rig.net.test_corrupt_injected(1);
  rig.net.audit_invariants(false);
  EXPECT_EQ(rig.net.invariants().count(InvariantKind::kPacketConservation),
            1u);
  EXPECT_EQ(rig.net.invariants().total(), 1u);
}

TEST(SeededFault, CleanRunAuditsCleanIncludingQuiescence) {
  // Positive control for all of the above: real traffic, no faults, full
  // quiescent audit — zero violations, so the seeded tests prove detection
  // rather than background noise.
  Rig rig;
  for (int i = 0; i < 8; ++i) rig.net.inject(6, 4, 512);
  rig.sim.run_until(ms(20));
  ASSERT_EQ(rig.net.packets_delivered(), 8u);
  rig.net.audit_invariants(/*quiescent=*/true);
  EXPECT_EQ(rig.net.invariants().total(), 0u);
  EXPECT_EQ(rig.sim.causality_violations(), 0u);
}

// ---------------------------------------------------------------------------
// A real find of the invariant layer, pinned as a characterization test:
// with chunked sending (chunk_flits = 8), a flow whose flit count is not a
// multiple of the chunk size ends in a shorter tail chunk, so two send
// commits can fit inside one stop-propagation window and the 56+8+8+8 = 80
// skid-budget proof no longer holds.  Packets small enough to fit entirely
// in the slack buffer stream tail-to-head at saturation and overrun the
// buffer by a few flits.  The ledger must report every overrun (the model
// is never silently wrong), the overrun must stay within two extra chunks,
// and exact flit-level simulation of the same workload must be clean.
TEST(SlackSkid, SubChunkTailsCanOverflowByABoundedMargin) {
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  auto run = [&](int chunk_flits) {
    MyrinetParams p;
    p.chunk_flits = chunk_flits;
    Simulator sim;
    Network net(sim, topo, routes, p, PathPolicy::kSingle);
    // Saturating all-to-all bursts of 64-byte packets: 68 flits with
    // header, so every flow ends in a 4-flit tail chunk at chunk 8.
    for (int rep = 0; rep < 40; ++rep) {
      for (HostId h = 0; h < topo.num_hosts(); ++h) {
        net.inject(h, (h + 9) % topo.num_hosts(), 64);
      }
    }
    sim.run_until(ms(5));
    net.audit_invariants(false);
    return std::tuple(net.flow_control_violations(),
                      net.invariants().count(InvariantKind::kBufferOverflow),
                      net.max_buffer_occupancy(),
                      net.packets_delivered());
  };

  const auto [fc8, ledger8, peak8, delivered8] = run(8);
  EXPECT_GT(fc8, 0u) << "artifact gone? tighten the skid-budget comment in "
                        "params.hpp and fold this workload into the fuzz";
  EXPECT_GE(ledger8, fc8) << "every overrun must reach the ledger";
  MyrinetParams defaults;
  EXPECT_GT(peak8, defaults.slack_buffer_flits);
  EXPECT_LE(peak8, defaults.slack_buffer_flits + 2 * defaults.chunk_flits);
  EXPECT_GT(delivered8, 0u);

  const auto [fc1, ledger1, peak1, delivered1] = run(1);
  EXPECT_EQ(fc1, 0u) << "flit-level simulation must respect the skid budget";
  EXPECT_EQ(ledger1, 0u);
  EXPECT_LE(peak1, defaults.slack_buffer_flits);
  EXPECT_GT(delivered1, 0u);
}

// The recorder itself: caps stored detail at 32 but counts everything.
TEST(InvariantRecorder, CountsPastTheStorageCap) {
  InvariantRecorder rec;
  for (int i = 0; i < 100; ++i) {
    rec.record(InvariantKind::kFlitConservation, i, i, "x");
  }
  EXPECT_EQ(rec.total(), 100u);
  EXPECT_EQ(rec.count(InvariantKind::kFlitConservation), 100u);
  EXPECT_EQ(rec.violations().size(), 32u);
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.violations().empty());
}

}  // namespace
}  // namespace itb
