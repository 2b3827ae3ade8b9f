// Parallel experiment engine: the thread pool, the deterministic
// parallel-for, and the serial-vs-parallel bit-identity contract of
// run_replicated / sweep_loads.  These tests are the ones the TSan CI job
// runs (ctest -R Parallel) to catch data races in the pool and in the
// shared Testbed.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "sim/pool.hpp"
#include "harness/replicate.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/testbed.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

RunConfig fast_cfg(double load) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = load;
  cfg.warmup = us(40);
  cfg.measure = us(120);
  return cfg;
}

TEST(ParallelPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

TEST(ParallelPool, ParallelForCoversRangeExactlyOnce) {
  constexpr int kN = 257;
  std::vector<int> hits(kN, 0);  // each slot written only by its own index
  std::atomic<int> calls{0};
  parallel_for_n(kN, 4, [&](int i) {
    ++hits[static_cast<std::size_t>(i)];
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), kN);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ParallelPool, SingleJobRunsInlineInIndexOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  parallel_for_n(8, 1, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelPool, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for_n(16, 4,
                     [](int i) {
                       if (i == 5) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
}

TEST(ParallelPool, ParallelMapKeepsIndexOrder) {
  const auto out = parallel_map<int>(50, 4, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelPool, DefaultJobsHonoursEnvironment) {
  ::setenv("ITB_BENCH_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  ::setenv("ITB_BENCH_JOBS", "not-a-number", 1);
  EXPECT_GE(default_jobs(), 1);  // falls back to hardware concurrency
  ::unsetenv("ITB_BENCH_JOBS");
  EXPECT_GE(default_jobs(), 1);
  const int fallback = default_jobs();
  EXPECT_LE(fallback, kMaxJobs);
  ::setenv("ITB_BENCH_JOBS", "1024", 1);
  EXPECT_EQ(default_jobs(), 1024);
  // Out of [1, kMaxJobs]: ignored, not truncated to int or obeyed.  Only
  // parsed here — no pool is started.
  for (const char* bad : {"1025", "99999999999", "0"}) {
    ::setenv("ITB_BENCH_JOBS", bad, 1);
    EXPECT_EQ(default_jobs(), fallback) << bad;
  }
  ::unsetenv("ITB_BENCH_JOBS");
}

TEST(ParallelPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // Regression: parallel_for_n nested inside a pooled job must run inline
  // on the calling worker — fanning out again could deadlock wait_idle or
  // recruit workers whose thread_local workspaces are mid-point.  Before
  // the re-entrancy guard, a cold Testbed::routes() inside a driver was
  // forced onto the serial build path for exactly this reason.
  std::atomic<int> inner_total{0};
  parallel_for_n(4, 4, [&](int) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for_n(8, 4, [&](int) {
      // Inline contract: the nested range runs on the worker itself.
      EXPECT_EQ(std::this_thread::get_id(), outer);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelTestbed, ColdRoutesBuildFromInsideAPooledJobIsSafe) {
  // Satellite of the same regression: routes() now fans its row build out
  // across default_jobs(), so a cold call from a pool worker exercises the
  // nested-pooled_for path end to end and must produce the same table a
  // main-thread build does.
  Testbed warm_tb(make_torus_2d(4, 4, 4));
  warm_tb.warm(RoutingScheme::kItbSp);
  const RouteSet& reference = warm_tb.routes(RoutingScheme::kItbSp);

  Testbed cold_tb(make_torus_2d(4, 4, 4));
  std::atomic<const RouteSet*> seen{nullptr};
  parallel_for_n(4, 4, [&](int) {
    const RouteSet& r = cold_tb.routes(RoutingScheme::kItbSp);
    const RouteSet* expected = nullptr;
    seen.compare_exchange_strong(expected, &r);
    EXPECT_EQ(seen.load(), &r);  // every worker sees the one shared table
  });
  ASSERT_NE(seen.load(), nullptr);
  EXPECT_EQ(seen.load()->table_bytes(), reference.table_bytes());
  EXPECT_EQ(seen.load()->segments_shared(), reference.segments_shared());
}

TEST(ParallelTestbed, ConcurrentRoutesShareOneTable) {
  Testbed tb(make_torus_2d(4, 4, 2));
  std::vector<const RouteSet*> seen(16, nullptr);
  parallel_for_n(16, 4, [&](int i) {
    seen[static_cast<std::size_t>(i)] = &tb.routes(RoutingScheme::kItbRr);
  });
  for (const RouteSet* p : seen) EXPECT_EQ(p, seen[0]);
  // warm() is idempotent and const.
  const Testbed& ctb = tb;
  ctb.warm(RoutingScheme::kUpDown);
  EXPECT_EQ(&ctb.routes(RoutingScheme::kUpDown),
            &ctb.routes(RoutingScheme::kUpDown));
}

TEST(ParallelDeterminism, RunPointReportsWallClock) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult r =
      run_point(tb, RoutingScheme::kItbRr, pat, fast_cfg(0.01));
  EXPECT_GT(r.events, 0u);
  EXPECT_GE(r.wall_ms, 0.0);
  EXPECT_GT(r.events_per_sec, 0.0);
}

TEST(ParallelDeterminism, ReplicatedMatchesSerialBitForBit) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const auto serial = run_replicated(tb, RoutingScheme::kItbRr, pat,
                                     fast_cfg(0.01), 8, /*jobs=*/1);
  const auto parallel = run_replicated(tb, RoutingScheme::kItbRr, pat,
                                       fast_cfg(0.01), 8, /*jobs=*/4);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t k = 0; k < serial.runs.size(); ++k) {
    EXPECT_TRUE(same_simulated_metrics(serial.runs[k], parallel.runs[k]))
        << "replication " << k << " differs under parallel execution";
  }
  // Aggregates accumulate in index order, so they are bit-identical too.
  EXPECT_EQ(serial.accepted.mean(), parallel.accepted.mean());
  EXPECT_EQ(serial.accepted.variance(), parallel.accepted.variance());
  EXPECT_EQ(serial.latency_ns.mean(), parallel.latency_ns.mean());
  EXPECT_EQ(serial.saturated_count, parallel.saturated_count);
}

TEST(ParallelDeterminism, SweepMatchesSerialBitForBit) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  // Ladder crossing the knee: serial stops at the first saturated point.
  const std::vector<double> loads = {0.004, 0.006, 0.009, 0.013, 0.02,
                                     0.05, 0.2, 0.3};
  const auto serial =
      sweep_loads(tb, RoutingScheme::kUpDown, pat, fast_cfg(0), loads, 1);
  const auto parallel =
      sweep_loads(tb, RoutingScheme::kUpDown, pat, fast_cfg(0), loads, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].load, parallel[i].load);
    EXPECT_TRUE(same_simulated_metrics(serial[i].result, parallel[i].result))
        << "sweep point " << i << " differs under parallel execution";
  }
}

TEST(ParallelSweep, KeepsExactlyOneSaturatedPoint) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  // Several loads past the knee: the speculative parallel sweep must trim
  // back to the serial early-stop shape.
  const std::vector<double> loads = {0.005, 0.2, 0.3, 0.4, 0.5};
  const auto series =
      sweep_loads(tb, RoutingScheme::kUpDown, pat, fast_cfg(0), loads, 4);
  int saturated = 0;
  for (const SweepPoint& p : series) saturated += p.result.saturated ? 1 : 0;
  EXPECT_EQ(saturated, 1);
  EXPECT_TRUE(series.back().result.saturated);
  EXPECT_LT(series.size(), loads.size());
}

TEST(ParallelSweep, SaturationExhaustionReportsLastLoadRun) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  // Loads far below the knee: the ladder must exhaust without saturating
  // and report the last load actually simulated, not the next rung.
  const auto res = find_saturation(tb, RoutingScheme::kItbRr, pat,
                                   fast_cfg(0), 0.001, 1.2, 3);
  EXPECT_FALSE(res.saturated);
  ASSERT_EQ(res.trace.size(), 3u);
  EXPECT_DOUBLE_EQ(res.saturating_load, res.trace.back().load);
  EXPECT_NEAR(res.saturating_load, 0.001 * 1.2 * 1.2, 1e-12);
}

TEST(ParallelSweep, SaturationPlateauProbeShapesTrace) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const auto res = find_saturation(tb, RoutingScheme::kUpDown, pat,
                                   fast_cfg(0), 0.01, 1.4, 12);
  ASSERT_TRUE(res.saturated);
  ASSERT_GE(res.trace.size(), 2u);
  // The second-to-last point is the first saturated rung; the last is the
  // 1.5x overload probe confirming the plateau.
  EXPECT_TRUE(res.trace[res.trace.size() - 2].result.saturated);
  EXPECT_DOUBLE_EQ(res.trace[res.trace.size() - 2].load, res.saturating_load);
  EXPECT_DOUBLE_EQ(res.trace.back().load, res.saturating_load * 1.5);
}

TEST(ParallelOptions, ParseJobsFlag) {
  const char* argv1[] = {"bench", "--jobs", "4"};
  const auto o1 = parse_bench_args(3, const_cast<char**>(argv1));
  EXPECT_EQ(o1.jobs, 4);
  const char* argv2[] = {"bench"};
  const auto o2 = parse_bench_args(1, const_cast<char**>(argv2));
  EXPECT_GE(o2.jobs, 1);  // defaults to hardware concurrency
}

}  // namespace
}  // namespace itb
