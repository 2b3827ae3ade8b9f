#include "traffic/generator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace itb {

TrafficGenerator::TrafficGenerator(Simulator& sim, Network& net,
                                   const DestinationPattern& pattern,
                                   TrafficConfig cfg)
    : sim_(&sim), net_(&net) {
  reset(pattern, cfg);
}

void TrafficGenerator::reset(const DestinationPattern& pattern,
                             TrafficConfig cfg) {
  pattern_ = &pattern;
  cfg_ = cfg;
  if (!std::isfinite(cfg_.load_flits_per_ns_per_switch) ||
      cfg_.load_flits_per_ns_per_switch <= 0.0 || cfg_.payload_bytes <= 0 ||
      cfg_.payload_bytes > kMaxPayloadBytes) {
    throw std::invalid_argument("TrafficGenerator: bad load/payload");
  }
  const auto& topo = net_->topology();
  if (topo.num_hosts() == 0) {
    throw std::invalid_argument("TrafficGenerator: topology '" + topo.name() +
                                "' has no hosts to generate traffic");
  }
  // load [flits/ns/switch] * switches = network flits/ns; divide across
  // hosts; a host then emits payload_bytes flits every `interval`.
  const double per_host_flits_per_ns =
      cfg_.load_flits_per_ns_per_switch *
      static_cast<double>(topo.num_switches()) /
      static_cast<double>(topo.num_hosts());
  const double interval_ps =
      static_cast<double>(cfg_.payload_bytes) / per_host_flits_per_ns * 1000.0;
  if (!(interval_ps >= 1.0)) {
    throw std::invalid_argument(
        "TrafficGenerator: load too high (message interval below 1 ps)");
  }
  if (!(interval_ps < static_cast<double>(std::numeric_limits<TimePs>::max()))) {
    throw std::invalid_argument(
        "TrafficGenerator: load too low (message interval overflows)");
  }
  interval_ = static_cast<TimePs>(interval_ps + 0.5);
  stopped_ = false;
  generated_ = 0;
  tap_ = nullptr;

  Rng seeder(cfg_.seed);
  host_rng_.clear();
  host_rng_.reserve(static_cast<std::size_t>(topo.num_hosts()));
  for (HostId h = 0; h < topo.num_hosts(); ++h) {
    host_rng_.push_back(seeder.fork(static_cast<std::uint64_t>(h)));
  }
}

void TrafficGenerator::start() {
  sim_->set_handler(EventKind::kGenTick, this);
  const auto& topo = net_->topology();
  for (HostId h = 0; h < topo.num_hosts(); ++h) {
    const auto phase = static_cast<TimePs>(host_rng_[static_cast<std::size_t>(h)]
                                               .next_below(static_cast<std::uint64_t>(interval_)));
    sim_->schedule_event_in(phase, EventKind::kGenTick, /*ch=*/-1, h);
  }
}

void TrafficGenerator::handle_event(const Event& e) {
  if (stopped_) return;
  const HostId h = e.a;
  Rng& rng = host_rng_[static_cast<std::size_t>(h)];
  const HostId dst = pattern_->pick(h, rng);
  if (dst != kNoHost) {
    net_->inject(h, dst, cfg_.payload_bytes);
    ++generated_;
    if (tap_) tap_(sim_->now(), h, dst, cfg_.payload_bytes);
  }
  TimePs delay = interval_;
  if (cfg_.poisson) {
    delay = static_cast<TimePs>(
        rng.next_exponential(static_cast<double>(interval_)));
    if (delay < 1) delay = 1;
  }
  sim_->schedule_event_in(delay, EventKind::kGenTick, /*ch=*/-1, h);
}

}  // namespace itb
