#include "traffic/patterns.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

bool is_power_of_two(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_exact(int v) {
  int b = 0;
  while ((1 << b) < v) ++b;
  return b;
}

/// Uniform draws pick among the other hosts, so there must be one.
void require_two_hosts(const std::string& pattern, int num_hosts) {
  if (num_hosts >= 2) return;
  throw std::invalid_argument(
      pattern + ": topology has " + (num_hosts == 1 ? "one host" : "no hosts") +
      "; a uniform destination needs at least two");
}
}  // namespace

UniformPattern::UniformPattern(int num_hosts) : num_hosts_(num_hosts) {
  require_two_hosts("UniformPattern", num_hosts);
}

HostId UniformPattern::pick(HostId src, Rng& rng) const {
  // Draw from the other N-1 hosts without rejection.
  const auto r = static_cast<HostId>(
      rng.next_below(static_cast<std::uint64_t>(num_hosts_ - 1)));
  return r >= src ? r + 1 : r;
}

BitReversalPattern::BitReversalPattern(int num_hosts)
    : num_hosts_(num_hosts), bits_(log2_exact(num_hosts)) {
  if (!is_power_of_two(num_hosts)) {
    throw std::invalid_argument(
        "BitReversalPattern: host count must be a power of two");
  }
}

HostId BitReversalPattern::pick(HostId src, Rng& /*rng*/) const {
  unsigned v = static_cast<unsigned>(src);
  unsigned out = 0;
  for (int b = 0; b < bits_; ++b) {
    out = (out << 1) | (v & 1u);
    v >>= 1;
  }
  const auto dst = static_cast<HostId>(out);
  return dst == src ? kNoHost : dst;  // fixed points generate no traffic
}

HotspotPattern::HotspotPattern(int num_hosts, HostId hotspot, double fraction)
    : num_hosts_(num_hosts), hotspot_(hotspot), fraction_(fraction) {
  require_two_hosts("HotspotPattern", num_hosts);
  if (hotspot < 0 || hotspot >= num_hosts) {
    throw std::invalid_argument("HotspotPattern: hotspot out of range");
  }
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("HotspotPattern: fraction out of range");
  }
}

HostId HotspotPattern::pick(HostId src, Rng& rng) const {
  if (src != hotspot_ && rng.next_bool(fraction_)) return hotspot_;
  const auto r = static_cast<HostId>(
      rng.next_below(static_cast<std::uint64_t>(num_hosts_ - 1)));
  return r >= src ? r + 1 : r;
}

LocalPattern::LocalPattern(const Topology& topo, int max_switch_distance) {
  if (max_switch_distance < 0) {
    throw std::invalid_argument("LocalPattern: max switch distance must be >= 0");
  }
  candidates_.resize(idx(topo.num_switches()));
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    const auto dist = topo.switch_distances_from(s);
    for (SwitchId d = 0; d < topo.num_switches(); ++d) {
      if (dist[idx(d)] < 0 || dist[idx(d)] > max_switch_distance) continue;
      for (const HostId h : topo.hosts_of_switch(d)) {
        candidates_[idx(s)].push_back(h);
      }
    }
    // pick() draws until it finds a host other than the source, so every
    // source needs a second candidate.
    if (!topo.hosts_of_switch(s).empty() && candidates_[idx(s)].size() < 2) {
      throw std::invalid_argument(
          "LocalPattern: a host on switch " + std::to_string(s) +
          " has no other host within " + std::to_string(max_switch_distance) +
          " switch hops");
    }
  }
  // Remember host attachments so pick() can exclude the source.
  src_switch_.resize(idx(topo.num_hosts()));
  for (HostId h = 0; h < topo.num_hosts(); ++h) {
    src_switch_[idx(h)] = topo.host(h).sw;
  }
}

HostId LocalPattern::pick(HostId src, Rng& rng) const {
  const auto& cands = candidates_[idx(src_switch_[idx(src)])];
  assert(cands.size() >= 2);
  for (;;) {
    const HostId h =
        cands[rng.next_below(static_cast<std::uint64_t>(cands.size()))];
    if (h != src) return h;
  }
}

PermutationPattern::PermutationPattern(std::vector<HostId> dest_of_src,
                                       std::string label)
    : dest_(std::move(dest_of_src)), label_(std::move(label)) {}

HostId PermutationPattern::pick(HostId src, Rng& /*rng*/) const {
  const HostId d = dest_[idx(src)];
  return d == src ? kNoHost : d;
}

}  // namespace itb
