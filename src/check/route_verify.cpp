#include "check/route_verify.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/itb_split.hpp"
#include "route/topo_minimal.hpp"

namespace itb {

namespace {

std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }

struct PairContext {
  const Topology* topo;
  const UpDown* ud;
  SwitchId s, d;
  std::int64_t pair_key;
  RouteVerifyReport* report;

  void fail(int alt, const std::string& why) const {
    report->violations.push_back(InvariantViolation{
        InvariantKind::kIllegalRoute, 0, pair_key,
        "pair " + std::to_string(s) + "->" + std::to_string(d) + " alt " +
            std::to_string(alt) + ": " + why});
  }
};

/// Re-trace the route's port bytes through the topology.  Returns false
/// (after reporting) when the walk is structurally broken; on success fills
/// `path` and `splits` (leg boundaries as indices into the switch walk).
bool retrace_route(const PairContext& ctx, const RouteView& r, int alt,
                   SwitchPath& path, std::vector<int>& splits) {
  const Topology& topo = *ctx.topo;
  SwitchId cur = r.src_switch;
  path.sw.assign(1, cur);
  path.cable.clear();
  splits.clear();
  for (std::size_t li = 0; li < r.legs.size(); ++li) {
    const LegView leg = r.legs[li];
    const bool final_leg = li + 1 == r.legs.size();
    // Intermediate legs carry one trailing port to the in-transit host; the
    // final leg's delivery port is appended per packet, not stored here.
    const int switch_ports =
        static_cast<int>(leg.ports.size()) - (final_leg ? 0 : 1);
    if (switch_ports != leg.switch_hops) {
      ctx.fail(alt, "leg " + std::to_string(li) + " has " +
                        std::to_string(switch_ports) +
                        " switch ports but switch_hops=" +
                        std::to_string(leg.switch_hops));
      return false;
    }
    for (int i = 0; i < switch_ports; ++i) {
      const PortPeer& pp = topo.peer(cur, leg.ports[idx(i)]);
      if (pp.kind != PeerKind::kSwitch) {
        ctx.fail(alt, "leg " + std::to_string(li) + " port byte " +
                          std::to_string(leg.ports[idx(i)]) + " at switch " +
                          std::to_string(cur) +
                          " does not lead to a switch");
        return false;
      }
      path.cable.push_back(pp.cable);
      path.sw.push_back(pp.sw);
      cur = pp.sw;
    }
    if (final_leg) {
      if (leg.end_host != kNoHost) {
        ctx.fail(alt, "final leg names an in-transit host");
        return false;
      }
    } else {
      if (leg.end_host == kNoHost) {
        ctx.fail(alt, "intermediate leg has no in-transit host");
        return false;
      }
      const PortPeer& hp = topo.peer(cur, leg.ports.back());
      if (hp.kind != PeerKind::kHost || hp.host != leg.end_host) {
        ctx.fail(alt, "leg " + std::to_string(li) +
                          " eject port does not reach host " +
                          std::to_string(leg.end_host));
        return false;
      }
      if (topo.host(leg.end_host).sw != cur) {
        ctx.fail(alt, "in-transit host " + std::to_string(leg.end_host) +
                          " is not attached to split switch " +
                          std::to_string(cur));
        return false;
      }
      splits.push_back(path.hops());
    }
  }
  return true;
}

/// Stable identity of an alternative for pairwise-distinctness: the port
/// walk plus the in-transit hosts.  From a fixed source switch the port
/// bytes determine the switch walk, so this distinguishes exactly the
/// routes that behave differently on the wire (two alternatives over the
/// same switches but different ITB hosts are genuinely different routes).
std::string route_identity(const RouteView& r) {
  std::string id;
  for (const LegView l : r.legs) {
    for (const PortId p : l.ports) id += std::to_string(p) + ",";
    id += '@';
    id += std::to_string(l.end_host);
    id += ';';
  }
  return id;
}

}  // namespace

RouteVerifyReport verify_route_set(const Topology& topo, const UpDown& ud,
                                   const RouteSet& routes,
                                   const RouteVerifyOptions& opts) {
  RouteVerifyReport report;
  const int n = routes.num_switches();
  const RoutingAlgorithm algo = routes.algorithm();
  const bool itb_table = algo == RoutingAlgorithm::kItb;
  const bool minimal_table = algo == RoutingAlgorithm::kMinimal;
  // Structured-minimal tables are checked against the oracle's canonical
  // length, not the BFS distance: the canonical Dragonfly l-g-l path (at
  // most 3 hops via the direct group-pair cable) can be longer than a
  // two-global BFS shortcut through a third group, and that is the length
  // the table is specified to install.
  std::optional<StructuredMinimal> oracle;
  if (minimal_table && has_structured_minimal(topo)) {
    oracle.emplace(topo);
  }
  for (SwitchId s = 0; s < n; ++s) {
    const std::vector<int> dist = topo.switch_distances_from(s);
    for (SwitchId d = 0; d < n; ++d) {
      if (s == d) continue;
      PairContext ctx{&topo, &ud, s, d,
                      static_cast<std::int64_t>(s) * n + d, &report};
      const AltsView alts = routes.alternatives(s, d);
      ++report.pairs_checked;
      if (alts.empty()) {
        ctx.fail(-1, "no route installed");
        continue;
      }
      if (static_cast<int>(alts.size()) > opts.max_alternatives) {
        ctx.fail(-1, "table holds " + std::to_string(alts.size()) +
                         " alternatives, cap is " +
                         std::to_string(opts.max_alternatives));
      }
      std::vector<std::string> seen;
      for (std::size_t a = 0; a < alts.size(); ++a) {
        const RouteView r = alts[a];
        const int alt = static_cast<int>(a);
        ++report.routes_checked;

        const std::string ident = route_identity(r);
        for (const std::string& prev : seen) {
          if (prev == ident) {
            ctx.fail(alt, "duplicate of an earlier alternative");
            break;
          }
        }
        seen.push_back(ident);

        if (r.src_switch != s || r.dst_switch != d) {
          ctx.fail(alt, "endpoints disagree with the table slot");
          continue;
        }
        SwitchPath path;
        std::vector<int> leg_splits;
        if (!retrace_route(ctx, r, alt, path, leg_splits)) continue;
        if (path.dst() != d) {
          ctx.fail(alt, "port walk ends at switch " +
                            std::to_string(path.dst()) + ", not " +
                            std::to_string(d));
          continue;
        }
        // Cross-check the table's own reconstruction of the switch walk
        // (from its composition tables) against the topology re-trace
        // above.
        const Route full = routes.materialize(s, d, alt);
        if (!std::equal(path.sw.begin(), path.sw.end(),
                        full.switches.begin(), full.switches.end())) {
          ctx.fail(alt, "materialized switch sequence disagrees with port walk");
        }
        if (path.hops() != r.total_switch_hops) {
          ctx.fail(alt, "total_switch_hops=" +
                            std::to_string(r.total_switch_hops) +
                            " but walk has " + std::to_string(path.hops()));
        }

        // Legality of each leg: the segments between splits must each obey
        // up*/down*.  Structured-minimal tables are exempt — their routes
        // are deliberately unrestricted (that freedom is what the ITB
        // schemes are being compared against) and their deadlock story is
        // per topology, not per leg.
        const auto segments = split_path(path, leg_splits);
        bool legs_legal = true;
        if (!minimal_table) {
          for (std::size_t seg = 0; seg < segments.size(); ++seg) {
            if (!ud.legal(segments[seg])) {
              legs_legal = false;
              ctx.fail(alt, "leg " + std::to_string(seg) +
                                " violates up*/down* (down->up inside a leg)");
            }
          }
        }

        // Splits must sit exactly at the violating switches of the full
        // path: the greedy itb_split mapping is the paper's placement rule.
        const std::vector<int> expected = itb_split_points(*ctx.ud, path);
        const bool minimal = path.hops() == dist[idx(d)];
        if (itb_table) {
          if (minimal) {
            if (leg_splits != expected) {
              ctx.fail(alt,
                       "in-transit stops are not exactly at the violating "
                       "switches (expected " +
                           std::to_string(expected.size()) + " splits, got " +
                           std::to_string(leg_splits.size()) + ")");
            }
          } else {
            // Documented fallback: the single legal-shortest route of a pair
            // whose every minimal path splits at a host-less switch.
            const bool fallback_shaped = alts.size() == 1 &&
                                         leg_splits.empty() && legs_legal &&
                                         path.hops() == ud.legal_distance(s, d);
            if (!opts.allow_legal_fallback || !fallback_shaped) {
              ctx.fail(alt, "path has " + std::to_string(path.hops()) +
                                " hops, minimal distance is " +
                                std::to_string(dist[idx(d)]));
            }
          }
        } else if (minimal_table) {
          // Structured-minimal tables: single-leg minimal routes, never
          // split, exactly one alternative per pair.
          if (r.num_itbs() != 0) {
            ctx.fail(alt, "minimal table route uses in-transit buffers");
          }
          if (oracle) {
            const int want = oracle->path(s, d).hops();
            if (path.hops() != want) {
              ctx.fail(alt, "path has " + std::to_string(path.hops()) +
                                " hops, canonical minimal length is " +
                                std::to_string(want) + " (BFS distance " +
                                std::to_string(dist[idx(d)]) + ")");
            }
          } else if (!minimal) {
            ctx.fail(alt, "path has " + std::to_string(path.hops()) +
                              " hops, minimal distance is " +
                              std::to_string(dist[idx(d)]));
          }
          if (alts.size() != 1) {
            ctx.fail(alt, "minimal table pair holds " +
                              std::to_string(alts.size()) +
                              " alternatives, expected exactly 1");
          }
        } else {
          // UP/DOWN tables: single-leg legal routes, never split.
          if (r.num_itbs() != 0) {
            ctx.fail(alt, "up*/down* table route uses in-transit buffers");
          }
        }
      }
    }
  }
  return report;
}

}  // namespace itb
