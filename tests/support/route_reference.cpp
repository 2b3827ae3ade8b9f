#include "support/route_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/itb_split.hpp"
#include "route/minimal_paths.hpp"
#include "route/topo_minimal.hpp"

namespace itb {

namespace {

std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

/// Per-pair rotation of the DFS direction order, as build_itb_routes
/// applies it: ITB-SP's pinned first minimal path is spread across
/// directions network-wide.
unsigned pair_rotation(SwitchId s, SwitchId d) {
  return static_cast<unsigned>((static_cast<std::uint64_t>(s) * 0x9e3779b9u +
                                static_cast<std::uint64_t>(d) * 0x85ebca6bu) >>
                               16);
}

std::invalid_argument bad_route(SwitchId s, SwitchId d, std::size_t alt,
                                const std::string& why) {
  return std::invalid_argument("factorize: pair " + std::to_string(s) + "->" +
                               std::to_string(d) + " alt " +
                               std::to_string(alt) + ": " + why);
}

/// True when the composed view carries exactly `want`'s endpoints, hop
/// counts, leg ports and in-transit hosts.
bool composes_to(const RouteView& v, const Route& want) {
  if (v.src_switch != want.src_switch || v.dst_switch != want.dst_switch ||
      v.total_switch_hops != want.total_switch_hops ||
      v.legs.size() != want.legs.size()) {
    return false;
  }
  for (std::size_t li = 0; li < want.legs.size(); ++li) {
    const LegView got = v.legs[li];
    const RouteLeg& w = want.legs[li];
    if (got.end_host != w.end_host || got.switch_hops != w.switch_hops ||
        got.ports.size() != w.ports.size()) {
      return false;
    }
    for (std::size_t p = 0; p < w.ports.size(); ++p) {
      if (got.ports[p] != w.ports[p]) return false;
    }
  }
  return true;
}

}  // namespace

Route compile_route(const Topology& topo, const SwitchPath& path,
                    const std::vector<int>& split_points, int alt_index) {
  Route r;
  r.src_switch = path.src();
  r.dst_switch = path.dst();
  r.switches = path.sw;
  r.total_switch_hops = path.hops();
  r.alt_tag = static_cast<std::uint16_t>(alt_index);

  const auto segments = split_path(path, split_points);
  r.legs.reserve(segments.size());
  for (std::size_t seg_i = 0; seg_i < segments.size(); ++seg_i) {
    const SwitchPath& seg = segments[seg_i];
    RouteLeg leg;
    leg.switch_hops = seg.hops();
    for (std::size_t h = 0; h < seg.cable.size(); ++h) {
      // Output port of the switch we are leaving, for the cable we cross.
      const Cable& cb = topo.cable(seg.cable[h]);
      leg.ports.push_back(cb.a.sw == seg.sw[h] ? cb.a.port : cb.b.port);
    }
    if (seg_i + 1 < segments.size()) {
      // In-transit host on the segment's last switch, spread over that
      // switch's hosts by the mix RouteSet::compose recomputes.
      const auto hosts = topo.hosts_of_switch(seg.dst());
      if (hosts.empty()) {
        throw std::invalid_argument(
            "compile_route: split switch has no attached host");
      }
      const std::uint64_t mix =
          static_cast<std::uint64_t>(path.src()) * 1315423911ULL +
          static_cast<std::uint64_t>(path.dst()) * 2654435761ULL +
          static_cast<std::uint64_t>(alt_index) * 40503ULL +
          static_cast<std::uint64_t>(seg_i) * 97ULL;
      const HostId h = hosts[mix % hosts.size()];
      leg.end_host = h;
      leg.ports.push_back(topo.host(h).port);
    }
    r.legs.push_back(std::move(leg));
  }
  return r;
}

RouteTable reference_updown_table(const Topology& topo,
                                  const SimpleRoutes& sr) {
  const int n = topo.num_switches();
  RouteTable table(idx(n) * idx(n));
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      table[pair_key(n, s, d)].push_back(
          compile_route(topo, sr.route(s, d), {}, 0));
    }
  }
  return table;
}

std::vector<Route> reference_itb_pair(const Topology& topo, const UpDown& ud,
                                      const ItbBuildOptions& opts, SwitchId s,
                                      SwitchId d,
                                      std::span<const int> dist_to_d) {
  std::vector<Route> alts;
  const auto paths = enumerate_minimal_paths(
      topo, s, d, opts.max_alternatives, pair_rotation(s, d), dist_to_d);
  for (const SwitchPath& p : paths) {
    const auto splits = itb_split_points(ud, p);
    // Skip candidates whose split switch has no host to eject into.
    const bool feasible =
        std::none_of(splits.begin(), splits.end(), [&](int sp) {
          return topo.hosts_of_switch(p.sw[idx(sp)]).empty();
        });
    if (!feasible) continue;
    alts.push_back(
        compile_route(topo, p, splits, static_cast<int>(alts.size())));
  }
  if (alts.empty()) {
    // No usable minimal path: fall back to a shortest legal route.
    const auto legal = ud.shortest_legal_paths(s, d, 1);
    if (legal.empty()) {
      throw std::runtime_error("reference_itb_pair: pair unreachable");
    }
    alts.push_back(compile_route(topo, legal.front(), {}, 0));
  }
  return alts;
}

RouteTable reference_itb_table(const Topology& topo, const UpDown& ud,
                               const ItbBuildOptions& opts) {
  const int n = topo.num_switches();
  RouteTable table(idx(n) * idx(n));
  for (SwitchId d = 0; d < n; ++d) {
    const std::vector<int> dist_to_d = topo.switch_distances_from(d);
    for (SwitchId s = 0; s < n; ++s) {
      table[pair_key(n, s, d)] =
          reference_itb_pair(topo, ud, opts, s, d, dist_to_d);
    }
  }
  return table;
}

RouteTable reference_minimal_table(const Topology& topo) {
  const StructuredMinimal sm(topo);
  const int n = topo.num_switches();
  RouteTable table(idx(n) * idx(n));
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      table[pair_key(n, s, d)].push_back(
          compile_route(topo, sm.path(s, d), {}, 0));
    }
  }
  return table;
}

RouteTable materialize_all(const RouteSet& rs) {
  const int n = rs.num_switches();
  RouteTable table(idx(n) * idx(n));
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const auto alts = static_cast<int>(rs.alternatives(s, d).size());
      for (int a = 0; a < alts; ++a) {
        table[pair_key(n, s, d)].push_back(rs.materialize(s, d, a));
      }
    }
  }
  return table;
}

RouteSet factorize(const Topology& topo, RoutingAlgorithm algo,
                   const RouteTable& table) {
  const int n = topo.num_switches();
  if (table.size() != idx(n) * idx(n)) {
    throw std::invalid_argument("factorize: table must hold S * S pairs");
  }
  FactorizedStoreBuilder builder(topo);
  FactorizedBlock block;
  FactorizedBlockStager stager;
  std::vector<std::uint32_t> walk_ids;
  std::vector<std::uint32_t> route_ids;
  for (SwitchId s = 0; s < n; ++s) {
    stager.begin_block(&block);
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& alts = table[pair_key(n, s, d)];
      route_ids.clear();
      for (std::size_t a = 0; a < alts.size(); ++a) {
        const Route& r = alts[a];
        walk_ids.clear();
        SwitchId cur = s;
        for (std::size_t li = 0; li < r.legs.size(); ++li) {
          const std::vector<PortId>& ports = r.legs[li].ports;
          std::size_t walk = ports.size();
          if (li + 1 < r.legs.size()) {
            // Composition follows an intermediate leg's walk to find the
            // in-transit host's switch, and synthesizes the eject port.
            if (ports.empty()) {
              throw bad_route(s, d, a, "intermediate leg has no eject port");
            }
            --walk;
            for (std::size_t h = 0; h < walk; ++h) {
              const PortId p = ports[h];
              if (p < 0 || p >= topo.ports_per_switch() ||
                  topo.peer(cur, p).kind != PeerKind::kSwitch) {
                throw bad_route(s, d, a,
                                "intermediate leg leaves the switch graph");
              }
              cur = topo.peer(cur, p).sw;
            }
          }
          walk_ids.push_back(stager.stage_walk(ports.data(), walk));
        }
        route_ids.push_back(
            stager.stage_route(walk_ids.data(), walk_ids.size(), r.alt_tag));
      }
      stager.commit_pair(route_ids.data(), route_ids.size());
    }
    builder.append_block(block);
  }
  RouteSet rs = builder.finish(algo);
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& alts = table[pair_key(n, s, d)];
      const AltsView got = rs.alternatives(s, d);
      for (std::size_t a = 0; a < alts.size(); ++a) {
        if (!composes_to(got[a], alts[a])) {
          throw bad_route(s, d, a, "does not compose back to the input route");
        }
      }
    }
  }
  return rs;
}

}  // namespace itb
