// Time-series samplers: windowed metrics over simulated-time windows.
//
// The harness drives sampling by slicing the measurement window into
// `RunConfig::sample_period` chunks of run_until() calls and capturing one
// TimeSeriesSample between slices.  Slicing executes the exact same event
// sequence as one long run_until (run_until only advances the clock past a
// boundary when no earlier event remains), so a sampled run is bit-identical
// to an unsampled one in every simulated metric — asserted by
// test_obs_samplers.SamplingDoesNotPerturbTheSimulation.  No sampling
// events are ever scheduled.
//
// Per-window quantities are deltas of the engine's cumulative counters
// (delivered flits, latency sums, busy accumulators), so the windowed
// series always re-aggregates to the steady-state numbers: summing
// accepted-traffic windows reproduces RunResult::accepted, and the
// busy-time-weighted mean of a link's windowed utilization reproduces its
// ChannelUtil::utilization within rounding (the Fig. 8/9/11 acceptance
// check).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace itb {

class MetricsCollector;
class Network;
class Simulator;

/// One simulated-time window of telemetry.
struct TimeSeriesSample {
  TimePs t_start = 0;  // window bounds (absolute simulated time)
  TimePs t_end = 0;
  std::uint64_t delivered = 0;  // packets delivered in this window
  double accepted_flits_per_ns_per_switch = 0.0;
  /// Mean network latency (ns) of deliveries in this window; 0 when none.
  double avg_latency_ns = 0.0;
  std::uint64_t events = 0;     // simulator events executed in this window
  std::uint64_t queue_len = 0;  // pending events at the window's end
  /// Mean ITB-pool occupancy across NICs at the window's end (fraction of
  /// MyrinetParams::itb_pool_bytes).
  double itb_pool_frac = 0.0;
  /// Per-channel busy fraction over this window (indexed by ChannelId);
  /// empty for a zero-width window.
  std::vector<float> link_util;
  /// Per-host ITB-pool occupancy (fraction of itb_pool_bytes) at the
  /// window's end (indexed by HostId).
  std::vector<float> itb_pool;
};

/// Captures windowed samples from the live component stack.  begin() at the
/// start of the measurement window, then sample() at each window boundary.
class TimeSeriesSampler {
 public:
  /// Arm the sampler at simulated time `now` (the start of the measurement
  /// window, after MetricsCollector::reset_window and
  /// Network::reset_channel_stats).  Every window records per-channel busy
  /// fractions and per-host ITB-pool occupancy.
  void begin(TimePs now, const Simulator& sim, const Network& net,
             const MetricsCollector& metrics);

  /// Close the current window at simulated time `now` and append a sample.
  void sample(TimePs now, const Simulator& sim, const Network& net,
              const MetricsCollector& metrics);

  [[nodiscard]] const std::vector<TimeSeriesSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::vector<TimeSeriesSample> take() {
    return std::move(samples_);
  }

 private:
  std::vector<TimeSeriesSample> samples_;
  std::vector<TimePs> prev_busy_;  // per-channel busy_accum at window start
  TimePs last_t_ = 0;
  std::uint64_t last_delivered_ = 0;
  std::uint64_t last_flits_ = 0;
  double last_latency_sum_ = 0.0;
  std::uint64_t last_latency_count_ = 0;
  std::uint64_t last_events_ = 0;
};

/// Append `samples` to a CSV file (header written when the file is empty),
/// one row per window, with per-link columns elided (the raw trace and the
/// JSON form carry those).  Mirrors append_series_csv's append semantics.
void append_samples_csv(const std::string& path, const std::string& experiment,
                        const std::string& scheme,
                        const std::vector<TimeSeriesSample>& samples);

/// Write the congestion heatmap: one long-format CSV row per (metric, id,
/// window) — `link_util` keyed by ChannelId and `itb_pool` keyed by HostId —
/// sized for the dragonfly16-class beds (rows scale as windows x (channels
/// + hosts), not switches^2).  Overwrites `path`.
void write_heatmap_csv(const std::string& path,
                       const std::vector<TimeSeriesSample>& samples);

}  // namespace itb
