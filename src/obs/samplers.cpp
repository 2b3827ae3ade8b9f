#include "obs/samplers.hpp"

#include <filesystem>
#include <fstream>

#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace itb {

void TimeSeriesSampler::begin(TimePs now, const Simulator& sim,
                              const Network& net,
                              const MetricsCollector& metrics) {
  samples_.clear();
  last_t_ = now;
  last_delivered_ = metrics.delivered();
  last_flits_ = metrics.delivered_flits();
  last_latency_sum_ = metrics.net_latency().sum();
  last_latency_count_ = metrics.net_latency().count();
  last_events_ = sim.events_executed();
  const int channels = net.topology().num_channels();
  prev_busy_.assign(static_cast<std::size_t>(channels), 0);
  for (std::size_t ch = 0; ch < prev_busy_.size(); ++ch) {
    prev_busy_[ch] = net.channel_busy_time(static_cast<ChannelId>(ch));
  }
}

void TimeSeriesSampler::sample(TimePs now, const Simulator& sim,
                               const Network& net,
                               const MetricsCollector& metrics) {
  TimeSeriesSample s;
  s.t_start = last_t_;
  s.t_end = now;
  const double window_ns = static_cast<double>(now - last_t_) / 1000.0;

  const std::uint64_t delivered = metrics.delivered();
  const std::uint64_t flits = metrics.delivered_flits();
  s.delivered = delivered - last_delivered_;
  if (window_ns > 0.0) {
    s.accepted_flits_per_ns_per_switch =
        static_cast<double>(flits - last_flits_) / window_ns /
        static_cast<double>(net.topology().num_switches());
  }

  const double lat_sum = metrics.net_latency().sum();
  const std::uint64_t lat_count = metrics.net_latency().count();
  if (lat_count > last_latency_count_) {
    s.avg_latency_ns = (lat_sum - last_latency_sum_) /
                       static_cast<double>(lat_count - last_latency_count_);
  }

  const std::uint64_t events = sim.events_executed();
  s.events = events - last_events_;
  s.queue_len = sim.queue_len();

  const std::int64_t pool_capacity =
      net.params().itb_pool_bytes *
      static_cast<std::int64_t>(net.topology().num_hosts());
  s.itb_pool_frac = pool_capacity > 0
                        ? static_cast<double>(net.itb_pool_used_total()) /
                              static_cast<double>(pool_capacity)
                        : 0.0;

  const auto hosts = static_cast<std::size_t>(net.topology().num_hosts());
  const std::int64_t per_host = net.params().itb_pool_bytes;
  s.itb_pool.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    s.itb_pool[h] =
        per_host > 0
            ? static_cast<float>(
                  static_cast<double>(net.itb_pool_used(
                      static_cast<HostId>(h))) /
                  static_cast<double>(per_host))
            : 0.0f;
  }

  if (now > last_t_) {
    s.link_util.resize(prev_busy_.size());
    for (std::size_t ch = 0; ch < prev_busy_.size(); ++ch) {
      const TimePs busy = net.channel_busy_time(static_cast<ChannelId>(ch));
      s.link_util[ch] = static_cast<float>(
          static_cast<double>(busy - prev_busy_[ch]) /
          static_cast<double>(now - last_t_));
      prev_busy_[ch] = busy;
    }
  }

  last_t_ = now;
  last_delivered_ = delivered;
  last_flits_ = flits;
  last_latency_sum_ = lat_sum;
  last_latency_count_ = lat_count;
  last_events_ = events;
  samples_.push_back(std::move(s));
}

void append_samples_csv(const std::string& path, const std::string& experiment,
                        const std::string& scheme,
                        const std::vector<TimeSeriesSample>& samples) {
  const bool fresh =
      !std::filesystem::exists(path) || std::filesystem::file_size(path) == 0;
  std::ofstream os(path, std::ios::app);
  if (fresh) {
    os << "experiment,scheme,window,t_start_ps,t_end_ps,delivered,"
          "accepted,avg_latency_ns,events,queue_len,itb_pool_frac,"
          "mean_link_util,max_link_util\n";
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TimeSeriesSample& s = samples[i];
    double mean_util = 0.0;
    double max_util = 0.0;
    if (!s.link_util.empty()) {
      for (const float u : s.link_util) {
        mean_util += u;
        if (u > max_util) max_util = u;
      }
      mean_util /= static_cast<double>(s.link_util.size());
    }
    os << experiment << ',' << scheme << ',' << i << ',' << s.t_start << ','
       << s.t_end << ',' << s.delivered << ','
       << s.accepted_flits_per_ns_per_switch << ',' << s.avg_latency_ns << ','
       << s.events << ',' << s.queue_len << ',' << s.itb_pool_frac << ','
       << mean_util << ',' << max_util << '\n';
  }
}

void write_heatmap_csv(const std::string& path,
                       const std::vector<TimeSeriesSample>& samples) {
  std::ofstream os(path, std::ios::trunc);
  os << "metric,id,window,t_start_ps,t_end_ps,value\n";
  for (std::size_t w = 0; w < samples.size(); ++w) {
    const TimeSeriesSample& s = samples[w];
    for (std::size_t ch = 0; ch < s.link_util.size(); ++ch) {
      os << "link_util," << ch << ',' << w << ',' << s.t_start << ','
         << s.t_end << ',' << s.link_util[ch] << '\n';
    }
    for (std::size_t h = 0; h < s.itb_pool.size(); ++h) {
      os << "itb_pool," << h << ',' << w << ',' << s.t_start << ',' << s.t_end
         << ',' << s.itb_pool[h] << '\n';
    }
  }
}

}  // namespace itb
