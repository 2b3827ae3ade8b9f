// Workspace-reuse determinism suite: the tentpole contract of the
// run-reuse layer is that a point run in a RESET workspace is bit-identical
// to the same point run in a freshly constructed one — same RNG draws, same
// (time, seq) event order, same metrics — for every scheme, with checked
// mode on.  These tests pit run_point_in against
// explicit fresh/reused SimWorkspaces and assert exactly that, plus the
// arena layer's headline property: zero engine heap allocations once a
// workspace has warmed to the workload's high-water mark.
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(30);
  cfg.measure = us(80);
  cfg.checked = true;  // deep checks must survive reuse too
  cfg.collect_link_util = true;  // widest determinism surface
  return cfg;
}

/// Same point three ways: fresh workspace, reused-once workspace, and the
/// third run in that same workspace.  All three must agree bit-for-bit.
void expect_reuse_identical(const Testbed& tb, RoutingScheme scheme) {
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config();

  SimWorkspace fresh;
  const RunResult a = run_point_in(fresh, tb, scheme, pat, cfg);

  SimWorkspace reused;
  const RunResult warm = run_point_in(reused, tb, scheme, pat, cfg);
  const RunResult b = run_point_in(reused, tb, scheme, pat, cfg);
  const RunResult c = run_point_in(reused, tb, scheme, pat, cfg);

  EXPECT_TRUE(same_simulated_metrics(a, warm));
  EXPECT_TRUE(same_simulated_metrics(a, b));
  EXPECT_TRUE(same_simulated_metrics(a, c));
  EXPECT_GT(a.delivered, 0u);
  EXPECT_EQ(a.invariant_violations, 0u);

  // Observability: reuse counts advance, and the fresh run is reuse zero.
  EXPECT_EQ(a.workspace_reuses, 0u);
  EXPECT_EQ(warm.workspace_reuses, 0u);
  EXPECT_EQ(b.workspace_reuses, 1u);
  EXPECT_EQ(c.workspace_reuses, 2u);
}

TEST(Workspace, ReuseBitIdenticalPodAllSchemes) {
  Testbed tb(make_torus_2d(4, 4, 4));
  for (const RoutingScheme s : {RoutingScheme::kUpDown, RoutingScheme::kItbSp,
                                RoutingScheme::kItbRr}) {
    SCOPED_TRACE(to_string(s));
    expect_reuse_identical(tb, s);
  }
}

TEST(Workspace, SteadyStateRunsWithoutHeapAllocations) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config();

  SimWorkspace ws;
  const RunResult first = run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);
  const RunResult second =
      run_point_in(ws, tb, RoutingScheme::kItbRr, pat, cfg);

  // The first run grows the arena/packet pool to the workload's high-water
  // mark; an identical second run must fit entirely in retained capacity.
  EXPECT_GT(first.heap_allocs_steady_state, 0u);
  EXPECT_EQ(second.heap_allocs_steady_state, 0u);
  EXPECT_EQ(first.arena_bytes_peak, second.arena_bytes_peak);
  EXPECT_TRUE(same_simulated_metrics(first, second));
}

TEST(Workspace, ReuseAcrossTopologies) {
  // One workspace, alternating testbeds: torus point, express-torus point,
  // then the torus point again.  Capacity reuse across differently shaped
  // networks must not leak any state between them.
  Testbed torus(make_torus_2d(4, 4, 4));
  Testbed express(make_torus_2d_express(5, 5, 4));
  UniformPattern torus_pat(torus.topo().num_hosts());
  UniformPattern express_pat(express.topo().num_hosts());
  const RunConfig cfg = small_config();

  SimWorkspace fresh_t, fresh_e;
  const RunResult t_ref =
      run_point_in(fresh_t, torus, RoutingScheme::kItbRr, torus_pat, cfg);
  const RunResult e_ref =
      run_point_in(fresh_e, express, RoutingScheme::kItbRr, express_pat, cfg);

  SimWorkspace ws;
  const RunResult t1 =
      run_point_in(ws, torus, RoutingScheme::kItbRr, torus_pat, cfg);
  const RunResult e1 =
      run_point_in(ws, express, RoutingScheme::kItbRr, express_pat, cfg);
  const RunResult t2 =
      run_point_in(ws, torus, RoutingScheme::kItbRr, torus_pat, cfg);

  EXPECT_TRUE(same_simulated_metrics(t_ref, t1));
  EXPECT_TRUE(same_simulated_metrics(e_ref, e1));
  EXPECT_TRUE(same_simulated_metrics(t_ref, t2));
}

TEST(Workspace, RunPointMatchesExplicitWorkspace) {
  // run_point (thread_local workspace) and run_point_in (explicit fresh
  // workspace) are the same primitive; their results must agree even after
  // the thread-local workspace has been reused by earlier calls.
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config();

  const RunResult warmup = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  (void)warmup;
  const RunResult via_thread = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  SimWorkspace ws;
  const RunResult via_fresh =
      run_point_in(ws, tb, RoutingScheme::kItbSp, pat, cfg);
  EXPECT_TRUE(same_simulated_metrics(via_thread, via_fresh));
}

TEST(Workspace, TopologySwitchRoundTrips) {
  // Two full A-B rounds in one workspace between differently shaped
  // networks and different path policies (the adaptive selector carries
  // feedback state): every point, including the second visit to each
  // configuration, must match its fresh-workspace reference.
  Testbed torus(make_torus_2d(4, 4, 4));
  Testbed hyperx(make_hyperx({3, 3}, 2));
  UniformPattern torus_pat(torus.topo().num_hosts());
  UniformPattern hyperx_pat(hyperx.topo().num_hosts());
  const RunConfig cfg = small_config();

  SimWorkspace fresh_t, fresh_h;
  const RunResult t_ref =
      run_point_in(fresh_t, torus, RoutingScheme::kItbAdapt, torus_pat, cfg);
  const RunResult h_ref =
      run_point_in(fresh_h, hyperx, RoutingScheme::kItbRr, hyperx_pat, cfg);

  SimWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const RunResult t =
        run_point_in(ws, torus, RoutingScheme::kItbAdapt, torus_pat, cfg);
    const RunResult h =
        run_point_in(ws, hyperx, RoutingScheme::kItbRr, hyperx_pat, cfg);
    EXPECT_TRUE(same_simulated_metrics(t_ref, t));
    EXPECT_TRUE(same_simulated_metrics(h_ref, h));
  }
  EXPECT_GT(h_ref.delivered, 0u);
  EXPECT_EQ(ws.reuses(), 3u);
}

TEST(Workspace, LazyRotationRowsDoNotLeakAcrossPoints) {
  // A dragonfly where most source NICs make no multi-path pick in a short
  // point, so most never draw a rotation row.  Rows live in the network's
  // arena until the next point's reset: after a busy RR point, an SP point
  // and a 5x-load RR point, a quiet RR point in the same workspace must
  // match a fresh workspace and hold only its own rows.
  Testbed tb(make_dragonfly(8, 8, 4), kAutoRoot);  // 264 switches, 2112 hosts
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = small_config();
  cfg.warmup = us(5);
  cfg.measure = us(20);
  const auto point = [&](double load, std::uint64_t seed) {
    RunConfig c = cfg;
    c.load_flits_per_ns_per_switch = load;
    c.seed = seed;
    return c;
  };
  const RunConfig quiet = point(0.002, 4);

  SimWorkspace ws;
  const RunResult rr = run_point_in(ws, tb, RoutingScheme::kItbRr, pat,
                                    point(0.02, 1));
  const RunResult sp = run_point_in(ws, tb, RoutingScheme::kItbSp, pat,
                                    point(0.02, 2));
  const RunResult busy = run_point_in(ws, tb, RoutingScheme::kItbRr, pat,
                                      point(0.1, 3));
  const RunResult last = run_point_in(ws, tb, RoutingScheme::kItbRr, pat,
                                      quiet);
  SimWorkspace fresh;
  const RunResult ref = run_point_in(fresh, tb, RoutingScheme::kItbRr, pat,
                                     quiet);

  EXPECT_TRUE(same_simulated_metrics(ref, last));
  EXPECT_GT(last.delivered, 0u);
  EXPECT_EQ(last.invariant_violations, 0u);
  EXPECT_EQ(last.arena_bytes_peak, ref.arena_bytes_peak);
  // Up-front rows for every NIC would take 2112 x 264 x 2 B ~ 1.1 MB of
  // cursors alone.
  const std::size_t eager = std::size_t{2112} * 264 * sizeof(std::uint16_t);
  EXPECT_LT(last.arena_bytes_peak, eager / 10);
  EXPECT_GT(busy.arena_bytes_peak, last.arena_bytes_peak);
  EXPECT_GT(rr.delivered, 0u);
  EXPECT_GT(sp.delivered, 0u);
}

}  // namespace
}  // namespace itb
