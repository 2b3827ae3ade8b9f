// Conservative parallel engine suite: the headline contract is that a
// simulation sharded across K lanes (sim/parallel_engine.hpp) produces
// IDENTICAL simulated metrics to the serial POD engine — not statistically
// close, bit-for-bit equal — for K = 1, 2 and 8, on every testbed, with
// deep checks on.  The only field exempted is peak_event_queue_len: the
// sharded value is a sum of per-lane high-water marks, which bounds but
// does not equal the serial queue's peak (queue peaks are execution
// telemetry, not simulated results).
//
// The suite also pins the partition plan's invariants (contiguity,
// host-follows-switch, lookahead derivation) and the order-tie telemetry
// that backs the determinism claim: on these configurations no two
// cross-lane events share a picosecond, so boundary_ties must be zero and
// the merged event order is fully forced.
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "net/params.hpp"
#include "sim/partition.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

RunConfig small_config(EngineKind engine, int shards) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(30);
  cfg.measure = us(80);
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.checked = true;            // watchdog + route verify ride along
  cfg.collect_link_util = true;  // widest determinism surface
  return cfg;
}

/// Serial-vs-sharded comparison with the one legitimate difference
/// normalized away (see the header comment).  `expect_zero_ties`: on
/// single-path schemes over the torus no two cross-lane events share a
/// picosecond, so the (time, lane, push-order) key provably forces the
/// serial order; schemes/topologies with same-instant cross-lane pushes
/// report them in boundary_ties instead (the order is still deterministic,
/// broken by lane id, and the metrics must STILL match serial).
void expect_matches_serial(const RunResult& serial, RunResult sharded,
                           int shards, bool expect_zero_ties) {
  EXPECT_EQ(sharded.shards, static_cast<std::uint64_t>(shards));
  EXPECT_GE(sharded.peak_event_queue_len, serial.peak_event_queue_len);
  sharded.peak_event_queue_len = serial.peak_event_queue_len;
  EXPECT_TRUE(same_simulated_metrics(serial, sharded));
  // Lane + coordinator events reproduce the serial count exactly — every
  // serial event executes on exactly one lane (or the coordinator clock).
  EXPECT_EQ(sharded.events, serial.events);
  EXPECT_EQ(sharded.invariant_violations, 0u);
  if (shards == 1 || expect_zero_ties) {
    EXPECT_EQ(sharded.boundary_ties, 0u);
  }
  if (shards > 1) {
    EXPECT_GT(sharded.windows_executed, 0u);
    EXPECT_GT(sharded.boundary_events, 0u);
    EXPECT_GT(sharded.window_ns, 0.0);
  }
}

void expect_sharding_invisible(const Testbed& tb, RoutingScheme scheme,
                               bool expect_zero_ties) {
  UniformPattern pat(tb.topo().num_hosts());
  SimWorkspace ws;
  const RunResult serial =
      run_point_in(ws, tb, scheme, pat, small_config(EngineKind::kPod, 1));
  ASSERT_GT(serial.delivered, 0u);
  ASSERT_EQ(serial.invariant_violations, 0u);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimWorkspace pws;
    const RunResult sharded = run_point_in(
        pws, tb, scheme, pat, small_config(EngineKind::kPodParallel, shards));
    expect_matches_serial(serial, sharded, shards, expect_zero_ties);
  }
}

TEST(ParallelEngine, TorusMatchesSerialAllSchemes) {
  Testbed tb(make_torus_2d(4, 4, 4));
  expect_sharding_invisible(tb, RoutingScheme::kUpDown,
                            /*expect_zero_ties=*/true);
  expect_sharding_invisible(tb, RoutingScheme::kItbSp,
                            /*expect_zero_ties=*/true);
  // Round-robin alternates packets across physical paths, which CAN land
  // two cross-lane pushes on one picosecond — ties are reported, the order
  // stays deterministic, and the metrics still match serial exactly.
  expect_sharding_invisible(tb, RoutingScheme::kItbRr,
                            /*expect_zero_ties=*/false);
}

TEST(ParallelEngine, ExpressTorusMatchesSerial) {
  Testbed tb(make_torus_2d_express(5, 5, 4));
  expect_sharding_invisible(tb, RoutingScheme::kItbSp,
                            /*expect_zero_ties=*/false);
}

TEST(ParallelEngine, CplantMatchesSerial) {
  Testbed tb(make_cplant());
  expect_sharding_invisible(tb, RoutingScheme::kItbRr,
                            /*expect_zero_ties=*/false);
}

// A sharded workspace obeys the same reuse contract as a serial one: the
// second and third points in one workspace are bit-identical to the first,
// and the engine's lanes/threads/arenas are retained across points.
TEST(ParallelEngine, ReuseBitIdenticalAcrossPoints) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config(EngineKind::kPodParallel, 4);

  SimWorkspace ws;
  const RunResult a = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
  const RunResult b = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
  const RunResult c = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
  EXPECT_TRUE(same_simulated_metrics(a, b));
  EXPECT_TRUE(same_simulated_metrics(a, c));
  EXPECT_EQ(a.windows_executed, b.windows_executed);
  EXPECT_EQ(a.boundary_events, b.boundary_events);
  EXPECT_EQ(c.workspace_reuses, 2u);
}

// Sliced (time-series-sampled) sharded runs execute the same per-lane
// event order as unsliced ones: sampling must not perturb the simulation
// in parallel mode either.  peak_event_queue_len is normalized like the
// serial comparison's: slicing re-anchors the barrier-window grid, which
// moves WHEN mailbox messages enter a lane's calendar (execution
// telemetry) without moving any event's execution order or time.
TEST(ParallelEngine, SamplingDoesNotPerturbShardedRuns) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig plain = small_config(EngineKind::kPodParallel, 4);
  RunConfig sampled = plain;
  sampled.sample_period = us(10);

  SimWorkspace ws1;
  const RunResult a = run_point_in(ws1, tb, RoutingScheme::kItbSp, pat, plain);
  SimWorkspace ws2;
  RunResult b = run_point_in(ws2, tb, RoutingScheme::kItbSp, pat, sampled);
  EXPECT_EQ(b.samples.size(), 8u);
  b.samples.clear();  // sampled-vs-plain differs only in the series itself
  b.peak_event_queue_len = a.peak_event_queue_len;
  EXPECT_TRUE(same_simulated_metrics(a, b));
}

// Tracing runs SHARDED: a traced kPodParallel run keeps all its lanes
// (shards == K, not the old serial fallback), records into per-lane rings,
// and the merged stream is record-identical to a serial traced run of the
// same point (the deep differential lives in test_obs_parallel; this pins
// the engine-selection contract).
TEST(ParallelEngine, TracingRunsSharded) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = small_config(EngineKind::kPodParallel, 4);
  cfg.trace = true;

  SimWorkspace ws;
  const RunResult r = run_point_in(ws, tb, RoutingScheme::kItbSp, pat, cfg);
  EXPECT_EQ(r.shards, 4u);
  EXPECT_GT(r.trace_records, 0u);
  EXPECT_FALSE(r.trace.empty());

  RunConfig serial = small_config(EngineKind::kPod, 1);
  serial.trace = true;
  SimWorkspace ws2;
  RunResult s = run_point_in(ws2, tb, RoutingScheme::kItbSp, pat, serial);
  EXPECT_EQ(r.delivered, s.delivered);
  EXPECT_EQ(r.avg_latency_ns, s.avg_latency_ns);
  EXPECT_EQ(r.trace_records, s.trace_records);
}

// The adaptive selector's latency-feedback loop is inherently serial; the
// runner must execute kItbAdaptive points on one lane even when asked for
// more.
TEST(ParallelEngine, AdaptivePolicyFallsBackToSerial) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config(EngineKind::kPodParallel, 4);
  SimWorkspace ws;
  const RunResult r =
      run_point_in(ws, tb, RoutingScheme::kItbAdapt, pat, cfg);
  EXPECT_EQ(r.shards, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

// --- Partition-plan invariants --------------------------------------------

TEST(PartitionPlan, ContiguousBlocksCoverEverySwitchAndHost) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const MyrinetParams params;
  const PartitionPlan plan = make_contiguous_plan(tb.topo(), params, 4);
  ASSERT_EQ(plan.shards, 4);
  // Contiguity: lane ids are non-decreasing over switch ids, every lane
  // non-empty, and each host lives on its switch's lane.
  int prev = 0;
  for (SwitchId s = 0; s < tb.topo().num_switches(); ++s) {
    const int lane = plan.lane_of_switch(s);
    ASSERT_GE(lane, prev);
    ASSERT_LT(lane, plan.shards);
    prev = lane;
  }
  EXPECT_EQ(plan.lane_of_switch(0), 0);
  EXPECT_EQ(plan.lane_of_switch(tb.topo().num_switches() - 1),
            plan.shards - 1);
  for (HostId h = 0; h < tb.topo().num_hosts(); ++h) {
    EXPECT_EQ(plan.lane_of_host(h),
              plan.lane_of_switch(tb.topo().host(h).sw));
  }
}

TEST(PartitionPlan, ShardCountClampedToSwitches) {
  Testbed tb(make_torus_2d(2, 2, 4));  // 4 switches
  const MyrinetParams params;
  const PartitionPlan plan = make_contiguous_plan(tb.topo(), params, 64);
  EXPECT_EQ(plan.shards, 4);
}

TEST(PartitionPlan, LookaheadIsMinCutCableLatency) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const MyrinetParams params;
  const PartitionPlan cut = make_contiguous_plan(tb.topo(), params, 4);
  // Conservative window: no cut cable may deliver sooner than the
  // lookahead, and a cut exists at K=4 on a 16-switch torus.  All torus
  // cables share one length, so the min IS the common propagation delay.
  EXPECT_GT(cut.boundary_channels, 0);
  EXPECT_GE(cut.lookahead, 1);
  EXPECT_EQ(cut.lookahead, params.cable_prop_delay(10.0));

  // K=1: nothing is cut, the window degenerates to min over all cables.
  const PartitionPlan whole = make_contiguous_plan(tb.topo(), params, 1);
  EXPECT_EQ(whole.boundary_channels, 0);
  EXPECT_GE(whole.lookahead, 1);
}

}  // namespace
}  // namespace itb
