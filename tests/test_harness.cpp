// Experiment harness: testbed caching, run_point, sweeps, saturation
// search, and report formatting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

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
  cfg.warmup = us(50);
  cfg.measure = us(150);
  return cfg;
}

TEST(Testbed, SchemeNamesAndPolicies) {
  EXPECT_STREQ(to_string(RoutingScheme::kUpDown), "UP/DOWN");
  EXPECT_STREQ(to_string(RoutingScheme::kItbSp), "ITB-SP");
  EXPECT_STREQ(to_string(RoutingScheme::kItbRr), "ITB-RR");
  EXPECT_EQ(policy_of(RoutingScheme::kUpDown), PathPolicy::kSingle);
  EXPECT_EQ(policy_of(RoutingScheme::kItbSp), PathPolicy::kSingle);
  EXPECT_EQ(policy_of(RoutingScheme::kItbRr), PathPolicy::kRoundRobin);
  EXPECT_EQ(policy_of(RoutingScheme::kItbRnd), PathPolicy::kRandom);
  EXPECT_EQ(policy_of(RoutingScheme::kItbAdapt), PathPolicy::kAdaptive);
}

TEST(Testbed, CachesRouteSets) {
  Testbed tb(make_torus_2d(4, 4, 2));
  const RouteSet& a = tb.routes(RoutingScheme::kItbSp);
  const RouteSet& b = tb.routes(RoutingScheme::kItbRr);
  EXPECT_EQ(&a, &b) << "all ITB schemes share one table";
  const RouteSet& u1 = tb.routes(RoutingScheme::kUpDown);
  const RouteSet& u2 = tb.routes(RoutingScheme::kUpDown);
  EXPECT_EQ(&u1, &u2);
  EXPECT_NE(&a, &u1);
}

TEST(RunPoint, LowLoadDeliversOfferedTraffic) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult r =
      run_point(tb, RoutingScheme::kUpDown, pat, fast_cfg(0.005));
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted, r.offered, 0.15 * r.offered);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.avg_latency_ns, 3000.0);
  EXPECT_LT(r.avg_latency_ns, 10000.0);
  EXPECT_EQ(r.fc_violations, 0u);
  EXPECT_LE(r.max_buffer_occupancy, 80);
}

TEST(RunPoint, OverloadIsDetectedAsSaturated) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult r =
      run_point(tb, RoutingScheme::kUpDown, pat, fast_cfg(0.2));
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.accepted, r.offered * 0.95);
}

TEST(RunPoint, CollectsLinkUtilOnRequest) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = fast_cfg(0.01);
  cfg.collect_link_util = true;
  const RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  EXPECT_FALSE(r.link_util.empty());
}

TEST(RunPoint, RejectsAnEmptyMeasurementWindow) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = fast_cfg(0.01);
  cfg.measure = 0;
  EXPECT_THROW((void)run_point(tb, RoutingScheme::kItbRr, pat, cfg),
               std::invalid_argument);
  cfg.measure = -us(1);
  EXPECT_THROW((void)run_point(tb, RoutingScheme::kItbRr, pat, cfg),
               std::invalid_argument);
  cfg = fast_cfg(0.01);
  cfg.warmup = -1;
  EXPECT_THROW((void)run_point(tb, RoutingScheme::kItbRr, pat, cfg),
               std::invalid_argument);
  // A zero warm-up is a legal (if unusual) point.
  cfg.warmup = 0;
  EXPECT_GT(run_point(tb, RoutingScheme::kItbRr, pat, cfg).delivered, 0u);
}

TEST(RunPoint, DeterministicPerSeed) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult a = run_point(tb, RoutingScheme::kItbRr, pat, fast_cfg(0.01));
  const RunResult b = run_point(tb, RoutingScheme::kItbRr, pat, fast_cfg(0.01));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
  RunConfig other = fast_cfg(0.01);
  other.seed = 777;
  const RunResult c = run_point(tb, RoutingScheme::kItbRr, pat, other);
  EXPECT_NE(a.delivered, c.delivered);
}

TEST(Sweep, StopsAfterFirstSaturatedPoint) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const auto series = sweep_loads(tb, RoutingScheme::kUpDown, pat,
                                  fast_cfg(0), {0.005, 0.01, 0.3, 0.4});
  ASSERT_GE(series.size(), 3u);
  EXPECT_LE(series.size(), 4u);
  EXPECT_TRUE(series[2].result.saturated);
  if (series.size() == 3u) SUCCEED();
}

TEST(Sweep, LoadLadders) {
  const auto g = geometric_loads(0.01, 0.08, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_DOUBLE_EQ(g[0], 0.01);
  EXPECT_NEAR(g[3], 0.08, 1e-12);
  EXPECT_NEAR(g[1] / g[0], 2.0, 1e-9);
  const auto l = linear_loads(0.01, 0.04, 4);
  ASSERT_EQ(l.size(), 4u);
  EXPECT_DOUBLE_EQ(l[1], 0.02);
  EXPECT_EQ(geometric_loads(0.5, 1.0, 1).size(), 1u);
}

TEST(Saturation, FindsPlateauOnSmallTorus) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = fast_cfg(0);
  const auto sat =
      find_saturation(tb, RoutingScheme::kUpDown, pat, cfg, 0.01, 1.4, 12);
  EXPECT_GT(sat.throughput, 0.01);
  EXPECT_LT(sat.throughput, 0.2);
  EXPECT_GE(sat.trace.size(), 2u);
  EXPECT_TRUE(sat.trace[sat.trace.size() - 2].result.saturated ||
              sat.trace.back().result.saturated);
}

TEST(Saturation, ItbBeatsUpdownOnSmallTorus) {
  // Scaled-down version of the paper's headline (full scale runs in the
  // bench binaries): on a 4x4 torus with uniform traffic the ITB-RR
  // saturation throughput must clearly exceed UP/DOWN's.
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = fast_cfg(0);
  cfg.warmup = us(100);
  cfg.measure = us(250);
  const auto ud =
      find_saturation(tb, RoutingScheme::kUpDown, pat, cfg, 0.01, 1.3, 14);
  const auto rr =
      find_saturation(tb, RoutingScheme::kItbRr, pat, cfg, 0.01, 1.3, 14);
  EXPECT_GT(rr.throughput, 1.2 * ud.throughput);
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header and rows have identical line lengths (fixed-width columns).
  std::istringstream is(s);
  std::string line;
  std::getline(is, line);
  const auto header_len = line.size();
  while (std::getline(is, line)) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), header_len);
    }
  }
}

TEST(Report, SeriesPrinting) {
  SweepPoint pt;
  pt.load = 0.01;
  pt.result.offered = 0.01;
  pt.result.accepted = 0.0099;
  pt.result.avg_latency_ns = 5000.0;
  std::ostringstream os;
  print_series(os, "test", "UP/DOWN", {pt});
  EXPECT_NE(os.str().find("UP/DOWN"), std::string::npos);
  EXPECT_NE(os.str().find("0.0099"), std::string::npos);
}

TEST(Report, CsvAppendRoundTrip) {
  const std::string path = ::testing::TempDir() + "/itb_report_test.csv";
  std::remove(path.c_str());
  SweepPoint pt;
  pt.load = 0.01;
  pt.result.offered = 0.01;
  pt.result.accepted = 0.009;
  append_series_csv(path, "fig7a", "ITB-RR", {pt});
  append_series_csv(path, "fig7a", "UP/DOWN", {pt});
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // One header, two data lines.
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 3);
  EXPECT_NE(all.find("experiment,scheme"), std::string::npos);
  EXPECT_NE(all.find("fig7a,ITB-RR"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt_load(0.01234), "0.0123");
  EXPECT_EQ(fmt_ns(1234.56), "1234.6");
  EXPECT_EQ(fmt_ratio(2.129), "2.13");
  EXPECT_EQ(fmt_pct(0.123), "12.3%");
}

TEST(Report, ParseBenchArgs) {
  const char* argv1[] = {"bench", "--fast"};
  auto o1 = parse_bench_args(2, const_cast<char**>(argv1));
  EXPECT_TRUE(o1.fast);
  const char* argv2[] = {"bench", "--record", "/tmp/x.record"};
  auto o2 = parse_bench_args(3, const_cast<char**>(argv2));
  EXPECT_EQ(o2.record, "/tmp/x.record");
  const char* argv3[] = {"bench"};
  auto o3 = parse_bench_args(1, const_cast<char**>(argv3));
  EXPECT_EQ(o3.record, "");
}

}  // namespace
}  // namespace itb
