// Message destination distributions (§4.2 of the paper).
//
// A DestinationPattern maps (source host, RNG) to a destination host; every
// pattern guarantees dst != src.  Patterns that cannot serve a given source
// (e.g. bit-reversal fixed points, or a hotspot host with hotspot traffic
// disabled for itself) fall back as documented per pattern.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace itb {

class DestinationPattern {
 public:
  virtual ~DestinationPattern() = default;

  /// Destination for a message from `src`, or kNoHost when this source
  /// generates no traffic under the pattern (bit-reversal fixed points).
  [[nodiscard]] virtual HostId pick(HostId src, Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Uniform: any host but the source, equiprobable.  Needs at least two
/// hosts; throws std::invalid_argument otherwise.
class UniformPattern final : public DestinationPattern {
 public:
  explicit UniformPattern(int num_hosts);
  [[nodiscard]] HostId pick(HostId src, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "uniform"; }

 private:
  int num_hosts_;
};

/// Bit-reversal: dst = reverse of src's bits.  Requires a power-of-two host
/// count (the paper excludes CPLANT for this reason); sources whose
/// reversal equals themselves generate no traffic.
class BitReversalPattern final : public DestinationPattern {
 public:
  explicit BitReversalPattern(int num_hosts);
  [[nodiscard]] HostId pick(HostId src, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "bit-reversal"; }

 private:
  int num_hosts_;
  int bits_;
};

/// Hotspot: with probability `fraction`, the destination is the hotspot
/// host; otherwise uniform.  The hotspot itself, and traffic that would be
/// self-addressed, use the uniform fallback, so it needs two hosts too.
class HotspotPattern final : public DestinationPattern {
 public:
  HotspotPattern(int num_hosts, HostId hotspot, double fraction);
  [[nodiscard]] HostId pick(HostId src, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "hotspot"; }
  [[nodiscard]] HostId hotspot() const { return hotspot_; }

 private:
  int num_hosts_;
  HostId hotspot_;
  double fraction_;
};

/// Local: destinations uniformly among hosts whose switch is at most
/// `max_switch_distance` switch-graph hops from the source's switch
/// (paper: 3, with a 4-hop variant), excluding the source itself.
class LocalPattern final : public DestinationPattern {
 public:
  LocalPattern(const Topology& topo, int max_switch_distance);
  [[nodiscard]] HostId pick(HostId src, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "local"; }

 private:
  std::vector<std::vector<HostId>> candidates_;  // per source switch
  std::vector<SwitchId> src_switch_;             // host -> its switch
};

/// Fixed permutation built from any pairing function; used by tests and as
/// an extension point (e.g. transpose / complement permutations).
class PermutationPattern final : public DestinationPattern {
 public:
  explicit PermutationPattern(std::vector<HostId> dest_of_src,
                              std::string label);
  [[nodiscard]] HostId pick(HostId src, Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return label_; }

 private:
  std::vector<HostId> dest_;
  std::string label_;
};

}  // namespace itb
