// Workspace-reuse determinism suite: the tentpole contract of the
// run-reuse layer is that a point run in a RESET workspace is bit-identical
// to the same point run in a freshly constructed one — same RNG draws, same
// (time, seq) event order, same metrics — for every scheme, with checked
// mode on, serial or sharded.  These tests pit run_point_in against
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

RunConfig small_config(EngineKind engine, int shards = 1) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(30);
  cfg.measure = us(80);
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.checked = true;  // deep checks must survive reuse too
  cfg.collect_link_util = true;  // widest determinism surface
  return cfg;
}

/// Same point three ways: fresh workspace, reused-once workspace, and the
/// third run in that same workspace.  All three must agree bit-for-bit.
void expect_reuse_identical(const Testbed& tb, RoutingScheme scheme,
                            EngineKind engine) {
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config(engine);

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
    expect_reuse_identical(tb, s, EngineKind::kPod);
  }
}

TEST(Workspace, SteadyStateRunsWithoutHeapAllocations) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = small_config(EngineKind::kPod);

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
  const RunConfig cfg = small_config(EngineKind::kPod);

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
  const RunConfig cfg = small_config(EngineKind::kPod);

  const RunResult warmup = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  (void)warmup;
  const RunResult via_thread = run_point(tb, RoutingScheme::kItbSp, pat, cfg);
  SimWorkspace ws;
  const RunResult via_fresh =
      run_point_in(ws, tb, RoutingScheme::kItbSp, pat, cfg);
  EXPECT_TRUE(same_simulated_metrics(via_thread, via_fresh));
}

TEST(Workspace, EngineSwitchInsideOneWorkspace) {
  // prepare() may flip between serial and sharded runs; each engine's
  // results must match that engine's fresh-workspace reference.
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig pod_cfg = small_config(EngineKind::kPod);
  const RunConfig par_cfg = small_config(EngineKind::kPodParallel, 4);

  SimWorkspace fresh_pod, fresh_par;
  const RunResult pod_ref =
      run_point_in(fresh_pod, tb, RoutingScheme::kItbRr, pat, pod_cfg);
  const RunResult par_ref =
      run_point_in(fresh_par, tb, RoutingScheme::kItbRr, pat, par_cfg);
  EXPECT_EQ(par_ref.shards, 4u);

  SimWorkspace ws;
  const RunResult pod1 =
      run_point_in(ws, tb, RoutingScheme::kItbRr, pat, pod_cfg);
  const RunResult par1 =
      run_point_in(ws, tb, RoutingScheme::kItbRr, pat, par_cfg);
  const RunResult pod2 =
      run_point_in(ws, tb, RoutingScheme::kItbRr, pat, pod_cfg);
  const RunResult par2 =
      run_point_in(ws, tb, RoutingScheme::kItbRr, pat, par_cfg);

  EXPECT_TRUE(same_simulated_metrics(pod_ref, pod1));
  EXPECT_TRUE(same_simulated_metrics(par_ref, par1));
  EXPECT_TRUE(same_simulated_metrics(pod_ref, pod2));
  EXPECT_TRUE(same_simulated_metrics(par_ref, par2));
  EXPECT_EQ(par2.shards, 4u);
}

}  // namespace
}  // namespace itb
