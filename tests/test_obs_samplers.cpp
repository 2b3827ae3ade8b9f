// Time-series sampler suite: slicing the measurement window must not
// perturb the simulation, windows must tile the window exactly, and the
// windowed series must re-aggregate to the steady-state RunResult numbers
// (deltas of cumulative counters guarantee it) — including the acceptance
// check that busy-weighted windowed link utilization reproduces
// ChannelUtil::utilization within rounding — and the congestion heatmap,
// whose rows must re-aggregate to those same windowed samples.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "obs/samplers.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

RunConfig sampled_config() {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(30);
  cfg.measure = us(80);
  cfg.sample_period = cfg.measure / 16;
  cfg.collect_link_util = true;
  return cfg;
}

RunResult sampled_point(const Testbed& tb, const RunConfig& cfg) {
  UniformPattern pat(tb.topo().num_hosts());
  return run_point(tb, RoutingScheme::kItbRr, pat, cfg);
}

TEST(ObsSamplers, SamplingDoesNotPerturbTheSimulation) {
  Testbed tb(make_torus_2d(4, 4, 4));
  RunConfig cfg = sampled_config();
  const RunResult sampled = sampled_point(tb, cfg);
  cfg.sample_period = 0;
  const RunResult plain = sampled_point(tb, cfg);

  EXPECT_GT(sampled.delivered, 0u);
  EXPECT_FALSE(sampled.samples.empty());
  EXPECT_TRUE(plain.samples.empty());

  // Every simulated metric must agree bit-exactly once the sampled run's
  // extra surface (the samples themselves) is set aside.
  RunResult cmp = sampled;
  cmp.samples.clear();
  EXPECT_TRUE(same_simulated_metrics(cmp, plain));
}

TEST(ObsSamplers, SamplesAreDeterministic) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult a = sampled_point(tb, cfg);
  const RunResult b = sampled_point(tb, cfg);
  // same_simulated_metrics compares the sampled series field-by-field when
  // both runs sampled.
  EXPECT_FALSE(a.samples.empty());
  EXPECT_TRUE(same_simulated_metrics(a, b));
}

TEST(ObsSamplers, WindowsTileTheMeasurementWindow) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult r = sampled_point(tb, cfg);

  ASSERT_GE(r.samples.size(), 16u);
  EXPECT_EQ(r.samples.front().t_start, cfg.warmup);
  EXPECT_EQ(r.samples.back().t_end, cfg.warmup + cfg.measure);
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_EQ(r.samples[i].t_start, r.samples[i - 1].t_end);
  }
  for (const TimeSeriesSample& s : r.samples) {
    EXPECT_LT(s.t_start, s.t_end);
    EXPECT_EQ(s.link_util.size(),
              static_cast<std::size_t>(tb.topo().num_channels()));
  }
}

TEST(ObsSamplers, WindowsReaggregateToSteadyStateTraffic) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult r = sampled_point(tb, cfg);
  ASSERT_FALSE(r.samples.empty());

  // Delivered packets and simulator events are exact deltas: their sums
  // reproduce the run totals for the measurement window.
  std::uint64_t delivered = 0;
  for (const TimeSeriesSample& s : r.samples) delivered += s.delivered;
  EXPECT_EQ(delivered, r.delivered);

  // Accepted traffic is a rate over each window; re-weighting by window
  // width recovers the whole-window rate.
  double flit_ns_sum = 0.0;  // sum of rate * window width
  for (const TimeSeriesSample& s : r.samples) {
    flit_ns_sum += s.accepted_flits_per_ns_per_switch *
                   static_cast<double>(s.t_end - s.t_start);
  }
  const double measure = static_cast<double>(cfg.measure);
  EXPECT_NEAR(flit_ns_sum / measure, r.accepted, 1e-12 + 1e-9 * r.accepted);

  // Mean latency, delivery-weighted across windows, reproduces the run's
  // average (windows with no deliveries report 0 and carry no weight).
  double lat_weighted = 0.0;
  std::uint64_t lat_count = 0;
  for (const TimeSeriesSample& s : r.samples) {
    lat_weighted += s.avg_latency_ns * static_cast<double>(s.delivered);
    lat_count += s.delivered;
  }
  ASSERT_GT(lat_count, 0u);
  EXPECT_NEAR(lat_weighted / static_cast<double>(lat_count), r.avg_latency_ns,
              1e-6 * r.avg_latency_ns);
}

TEST(ObsSamplers, WindowedLinkUtilReproducesAggregateWithinRounding) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult r = sampled_point(tb, cfg);
  ASSERT_FALSE(r.samples.empty());
  ASSERT_FALSE(r.link_util.empty());

  const double measure = static_cast<double>(cfg.measure);
  for (const ChannelUtil& cu : r.link_util) {
    double busy = 0.0;  // window-width-weighted busy fraction
    for (const TimeSeriesSample& s : r.samples) {
      ASSERT_LT(static_cast<std::size_t>(cu.channel), s.link_util.size());
      busy += static_cast<double>(
                  s.link_util[static_cast<std::size_t>(cu.channel)]) *
              static_cast<double>(s.t_end - s.t_start);
    }
    // Samples are stored as float: allow that rounding, nothing more.
    EXPECT_NEAR(busy / measure, cu.utilization, 1e-4);
  }
}

TEST(ObsSamplers, CsvEmission) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult r = sampled_point(tb, cfg);

  const std::string path = ::testing::TempDir() + "itb_samples_test.csv";
  std::remove(path.c_str());
  append_samples_csv(path, "torus-4x4/uniform", "ITB-RR", r.samples);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "experiment,scheme,window,t_start_ps,t_end_ps,delivered,accepted,"
            "avg_latency_ns,events,queue_len,itb_pool_frac,mean_link_util,"
            "max_link_util");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, r.samples.size());
  std::remove(path.c_str());
}

TEST(ObsSamplers, HeatmapRowsReaggregateToWindowedSamples) {
  Testbed tb(make_torus_2d(4, 4, 4));
  const RunConfig cfg = sampled_config();
  const RunResult r = sampled_point(tb, cfg);
  ASSERT_FALSE(r.samples.empty());
  const auto channels = static_cast<std::size_t>(tb.topo().num_channels());
  const auto hosts = static_cast<std::size_t>(tb.topo().num_hosts());

  // Per-host pool occupancy averages to the network-wide pool fraction.
  for (const TimeSeriesSample& s : r.samples) {
    ASSERT_EQ(s.link_util.size(), channels);
    ASSERT_EQ(s.itb_pool.size(), hosts);
    double pool = 0.0;
    for (const float f : s.itb_pool) pool += f;
    EXPECT_NEAR(pool / static_cast<double>(hosts), s.itb_pool_frac, 1e-6);
  }

  const std::string path = ::testing::TempDir() + "itb_heatmap_test.csv";
  write_heatmap_csv(path, r.samples);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "metric,id,window,t_start_ps,t_end_ps,value");

  // Every row matches the sample it came from to the CSV's six
  // significant digits.  Alongside: per-window pool sums and per-channel
  // window-width-weighted busy time, for the re-aggregation below.
  std::map<std::size_t, double> pool_sum;  // window -> sum over hosts
  std::map<std::size_t, double> busy;      // channel -> busy-weighted ps
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string metric, id, window, t_start, t_end, value;
    std::getline(row, metric, ',');
    std::getline(row, id, ',');
    std::getline(row, window, ',');
    std::getline(row, t_start, ',');
    std::getline(row, t_end, ',');
    std::getline(row, value, ',');
    const std::size_t w = std::stoul(window);
    const std::size_t i = std::stoul(id);
    ASSERT_LT(w, r.samples.size());
    const TimeSeriesSample& s = r.samples[w];
    EXPECT_EQ(std::stoll(t_start), s.t_start);
    EXPECT_EQ(std::stoll(t_end), s.t_end);
    const double v = std::stod(value);
    ASSERT_TRUE(metric == "link_util" || metric == "itb_pool") << metric;
    const float want = metric == "link_util" ? s.link_util.at(i)
                                             : s.itb_pool.at(i);
    EXPECT_NEAR(v, want, 1e-5 * (1.0 + want));
    if (metric == "itb_pool") {
      pool_sum[w] += v;
    } else {
      busy[i] += v * static_cast<double>(s.t_end - s.t_start);
    }
    ++rows;
  }
  std::remove(path.c_str());
  EXPECT_EQ(rows, r.samples.size() * (channels + hosts));

  // Re-aggregation: each window's pool rows average to that window's
  // pool fraction, and each channel's busy-weighted link rows reproduce
  // the run's ChannelUtil::utilization.
  for (std::size_t w = 0; w < r.samples.size(); ++w) {
    EXPECT_NEAR(pool_sum[w] / static_cast<double>(hosts),
                r.samples[w].itb_pool_frac, 1e-5);
  }
  ASSERT_FALSE(r.link_util.empty());
  const double measure = static_cast<double>(cfg.measure);
  for (const ChannelUtil& cu : r.link_util) {
    EXPECT_NEAR(busy[static_cast<std::size_t>(cu.channel)] / measure,
                cu.utilization, 1e-4);
  }
}

}  // namespace
}  // namespace itb
