// Golden determinism of the event engine: committed fixtures pin the
// simulated results, and a coalescing differential pins the one schedule
// optimisation.
//
// Delivery tail-burst coalescing (params.coalesce_chunk_flow) elides the
// intermediate chunk arrivals of a packet's final leg and lands them with
// the tail.  Those arrivals are pure sinks, so with coalescing off (one
// event per chunk: the reference schedule) every simulated quantity —
// delivery stream, latencies, spills, buffer peaks — must be identical,
// and the executed-event count may differ only by the elided arrivals.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hpp"
#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

bool operator==(const DeliveryRecord& a, const DeliveryRecord& b) {
  return a.src == b.src && a.dst == b.dst &&
         a.payload_flits == b.payload_flits && a.gen_time == b.gen_time &&
         a.inject_time == b.inject_time && a.deliver_time == b.deliver_time &&
         a.itbs_used == b.itbs_used && a.alt_index == b.alt_index &&
         a.total_switch_hops == b.total_switch_hops && a.spilled == b.spilled;
}

struct EngineRun {
  std::vector<DeliveryRecord> deliveries;
  std::uint64_t events = 0;
  std::uint64_t events_coalesced = 0;
  std::uint64_t fc_violations = 0;
  std::uint64_t spills = 0;
  int max_occupancy = 0;
  TimePs end_time = 0;
};

/// One fig.7-style point (4x4 torus, 2 hosts/switch) driven directly so the
/// full delivery stream can be captured, not just aggregate metrics.
/// `drain`: after stopping the generator, run until every packet has been
/// delivered, so no elided arrival is still pending at the end.
EngineRun run_engine(RoutingScheme scheme, const DestinationPattern& pat,
                     double load, std::uint64_t seed, bool coalesce,
                     const Testbed& tb, bool drain = false) {
  Simulator sim;
  MyrinetParams params;
  params.coalesce_chunk_flow = coalesce;
  Network net(sim, tb.topo(), tb.routes(scheme), params, policy_of(scheme),
              42 ^ 0x9e37u);
  EngineRun out;
  net.set_delivery_callback(
      [&out](const DeliveryRecord& r) { out.deliveries.push_back(r); });

  TrafficConfig tcfg;
  tcfg.load_flits_per_ns_per_switch = load;
  tcfg.payload_bytes = 512;
  tcfg.seed = seed;
  TrafficGenerator gen(sim, net, pat, tcfg);
  gen.start();
  sim.run_until(us(300));
  gen.stop();
  if (drain) sim.run_until();

  out.events = sim.events_executed();
  out.events_coalesced = net.chunk_events_coalesced();
  out.fc_violations = net.flow_control_violations();
  out.spills = net.itb_spills();
  out.max_occupancy = net.max_buffer_occupancy();
  out.end_time = sim.now();
  return out;
}

/// Coalescing on vs off: identical delivery stream, and coalescing really
/// elides events, and only events.  Every elided chunk arrival is
/// accounted, so the coalescing-off count is bracketed by the on count and
/// the on count plus elisions (arrivals pending at the deadline make the
/// upper bound an inequality).
void expect_coalescing_invisible(const EngineRun& on, const EngineRun& off) {
  EXPECT_EQ(on.fc_violations, 0u);
  EXPECT_EQ(off.fc_violations, 0u);
  EXPECT_EQ(on.spills, off.spills);
  EXPECT_EQ(on.max_occupancy, off.max_occupancy);
  EXPECT_EQ(on.end_time, off.end_time);
  ASSERT_EQ(on.deliveries.size(), off.deliveries.size());
  for (std::size_t i = 0; i < on.deliveries.size(); ++i) {
    ASSERT_TRUE(on.deliveries[i] == off.deliveries[i])
        << "delivery stream diverges at record " << i;
  }
  EXPECT_EQ(off.events_coalesced, 0u);
  EXPECT_GT(on.events_coalesced, 0u);
  EXPECT_LT(on.events, off.events);
  EXPECT_LE(off.events, on.events + on.events_coalesced);
}

TEST(EngineGolden, MidLoadDeliveryStreamIdentical) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  for (const RoutingScheme scheme :
       {RoutingScheme::kUpDown, RoutingScheme::kItbRr}) {
    SCOPED_TRACE(to_string(scheme));
    const EngineRun on = run_engine(scheme, pat, 0.02, 42, true, tb);
    const EngineRun off = run_engine(scheme, pat, 0.02, 42, false, tb);
    expect_coalescing_invisible(on, off);
    EXPECT_GT(on.deliveries.size(), 100u) << "point should carry traffic";
  }
}

TEST(EngineGolden, CoalescingOffMatchesEventForEvent) {
  // Drained to quiescence, no elided arrival is left pending, so the
  // bracket closes: the coalescing-off schedule executes exactly the
  // coalesced schedule's events plus one per elided chunk arrival.
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const EngineRun on =
      run_engine(RoutingScheme::kItbRr, pat, 0.02, 42, true, tb, true);
  const EngineRun off =
      run_engine(RoutingScheme::kItbRr, pat, 0.02, 42, false, tb, true);
  expect_coalescing_invisible(on, off);
  EXPECT_EQ(off.events, on.events + on.events_coalesced)
      << "coalescing must elide exactly the counted arrivals";
}

TEST(EngineGolden, HighLoadWithItbsStillIdentical) {
  // Push into congestion so ITB ejection/re-injection, stop&go flow control
  // and output arbitration all fire; bit-reversal stresses the up/down
  // detour paths that create in-transit hops.
  Testbed tb(make_torus_2d(4, 4, 2));
  BitReversalPattern pat(tb.topo().num_hosts());
  const EngineRun on = run_engine(RoutingScheme::kItbRr, pat, 0.08, 7, true, tb);
  const EngineRun off =
      run_engine(RoutingScheme::kItbRr, pat, 0.08, 7, false, tb);
  expect_coalescing_invisible(on, off);
  std::uint64_t itb_hops = 0;
  for (const DeliveryRecord& r : on.deliveries) {
    itb_hops += static_cast<std::uint64_t>(r.itbs_used);
  }
  EXPECT_GT(itb_hops, 0u) << "point should exercise the ITB mechanism";
}

/// RunResult comparison for coalescing on vs off: every simulated metric
/// must match; executed-event counts and queue peaks legitimately differ
/// (that is the point of coalescing), wall-clock always differs.
void expect_same_metrics(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.avg_latency_gen_ns, b.avg_latency_gen_ns);
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.latency_ci95_ns, b.latency_ci95_ns);
  EXPECT_EQ(a.avg_itbs, b.avg_itbs);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.spills, b.spills);
  EXPECT_EQ(a.fc_violations, 0u);
  EXPECT_EQ(b.fc_violations, 0u);
  EXPECT_EQ(a.max_buffer_occupancy, b.max_buffer_occupancy);
  EXPECT_EQ(a.saturated, b.saturated);
  ASSERT_EQ(a.link_util.size(), b.link_util.size());
  for (std::size_t i = 0; i < a.link_util.size(); ++i) {
    EXPECT_EQ(a.link_util[i].utilization, b.link_util[i].utilization);
    EXPECT_EQ(a.link_util[i].stopped_fraction,
              b.link_util[i].stopped_fraction);
  }
}

// ---------------------------------------------------------------------------
// Golden fixtures: committed canonical-JSON snapshots of one small cell from
// each experiment family (fig. 7 uniform, fig. 10 bit-reversal, fig. 12
// local traffic).  Any engine change that alters a simulated quantity —
// a latency, a delivery count, an event total — shows up as a fixture diff
// that must be reviewed and regenerated deliberately:
//
//   ITB_UPDATE_GOLDEN=1 ctest -R GoldenFixture
//
// The config pins everything build-dependent: checked=false explicitly
// (not the ITB_CHECKED-dependent default — watchdog sampling adds events),
// so every build produces the identical canonical string.

RunResult run_golden_cell(const Testbed& tb, const DestinationPattern& pat,
                          RoutingScheme scheme) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.payload_bytes = 512;
  cfg.warmup = us(50);
  cfg.measure = us(150);
  cfg.seed = 42;
  cfg.checked = false;
  return run_point(tb, scheme, pat, cfg);
}

void compare_or_update_golden(const char* name, const RunResult& r) {
  const std::string path = std::string(ITB_GOLDEN_DIR) + "/" + name;
  const std::string got = run_result_to_canonical_json(r) + "\n";
  if (std::getenv("ITB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path
                         << " missing; regenerate with ITB_UPDATE_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "simulated results changed; if intended, regenerate " << name
      << " with ITB_UPDATE_GOLDEN=1 and review the diff";
}

TEST(GoldenFixture, Fig7UniformCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig7_cell.json", r);
}

TEST(GoldenFixture, Fig10BitReversalCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  BitReversalPattern pat(tb.topo().num_hosts());
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kItbRr);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig10_cell.json", r);
}

TEST(GoldenFixture, Fig12LocalCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  LocalPattern pat(tb.topo(), 3);
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kUpDown);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig12_cell.json", r);
}

TEST(GoldenFixture, CanonicalJsonIsDeterministicAcrossRepeats) {
  // The fixture representation itself must be bit-stable: same config, two
  // fresh runs, identical canonical strings (wall-clock fields excluded).
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult a = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  const RunResult b = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  EXPECT_EQ(run_result_to_canonical_json(a), run_result_to_canonical_json(b));
  EXPECT_TRUE(same_simulated_metrics(a, b));
}

TEST(EngineGolden, RunPointMatchesWithCoalescingOff) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(50);
  cfg.measure = us(150);
  cfg.collect_link_util = true;
  const RunResult on = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  cfg.params.coalesce_chunk_flow = false;
  const RunResult off = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  expect_same_metrics(on, off);
  EXPECT_EQ(off.events_coalesced, 0u);
  EXPECT_GT(on.events_coalesced, 0u);
  EXPECT_LT(on.events, off.events);
  EXPECT_LE(off.events, on.events + on.events_coalesced);
  EXPECT_LE(on.peak_event_queue_len, off.peak_event_queue_len);
}

}  // namespace
}  // namespace itb
