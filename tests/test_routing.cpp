// Minimal-path enumeration, simple_routes selection, ITB splitting and the
// runtime route builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "core/itb_split.hpp"
#include "core/route_builder.hpp"
#include "core/route_stats.hpp"
#include "route/minimal_paths.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "sim/rng.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

std::size_t uz(std::int64_t v) { return static_cast<std::size_t>(v); }

// ---- minimal path enumeration ----

TEST(MinimalPaths, CountMatchesBinomialOnMesh) {
  // On a mesh, the number of minimal paths between opposite corners of an
  // a x b sub-rectangle is C(a+b, a).
  const Topology t = make_mesh_2d(4, 4, 1);
  EXPECT_EQ(count_minimal_paths(t, 0, 5, 100), 2);    // 1x1 block
  EXPECT_EQ(count_minimal_paths(t, 0, 10, 100), 6);   // 2x2 block
  EXPECT_EQ(count_minimal_paths(t, 0, 15, 100), 20);  // 3x3 block
  EXPECT_EQ(count_minimal_paths(t, 0, 3, 100), 1);    // straight line
}

TEST(MinimalPaths, AllShortestDistinctConsistent) {
  const Topology t = make_torus_2d(5, 5, 1);
  const auto dist = t.all_switch_distances();
  for (SwitchId s = 0; s < t.num_switches(); ++s) {
    for (SwitchId d = 0; d < t.num_switches(); ++d) {
      const auto paths = enumerate_minimal_paths(t, s, d, 10);
      ASSERT_FALSE(paths.empty());
      std::set<std::vector<CableId>> seen;
      for (const auto& p : paths) {
        EXPECT_TRUE(path_is_consistent(t, p));
        EXPECT_EQ(p.hops(), dist[uz(s) * uz(t.num_switches()) + uz(d)]);
        EXPECT_EQ(p.src(), s);
        EXPECT_EQ(p.dst(), d);
        EXPECT_TRUE(seen.insert(p.cable).second);
      }
    }
  }
}

TEST(MinimalPaths, CapRespected) {
  const Topology t = make_torus_2d(8, 8, 1);
  EXPECT_EQ(enumerate_minimal_paths(t, 0, 27, 10).size(), 10u);
  EXPECT_EQ(enumerate_minimal_paths(t, 0, 27, 3).size(), 3u);
}

TEST(MinimalPaths, SelfAndAdjacent) {
  const Topology t = make_mesh_2d(2, 2, 1);
  const auto self = enumerate_minimal_paths(t, 1, 1, 5);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].hops(), 0);
  const auto adj = enumerate_minimal_paths(t, 0, 1, 5);
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_EQ(adj[0].hops(), 1);
}

// ---- simple_routes ----

TEST(SimpleRoutes, OneLegalRoutePerPair) {
  const Topology t = make_torus_2d(4, 4, 2);
  const UpDown ud(t, 0);
  const SimpleRoutes sr(t, ud);
  for (SwitchId s = 0; s < 16; ++s) {
    for (SwitchId d = 0; d < 16; ++d) {
      const SwitchPath& p = sr.route(s, d);
      EXPECT_TRUE(path_is_consistent(t, p));
      EXPECT_TRUE(ud.legal(p));
      EXPECT_EQ(p.src(), s);
      EXPECT_EQ(p.dst(), d);
      EXPECT_EQ(p.hops(), ud.legal_distance(s, d));
    }
  }
}

TEST(SimpleRoutes, WeightsEqualRouteCrossings) {
  const Topology t = make_mesh_2d(3, 3, 1);
  const UpDown ud(t, 0);
  const SimpleRoutes sr(t, ud);
  std::vector<int> expect(uz(t.num_channels()), 0);
  for (SwitchId s = 0; s < 9; ++s) {
    for (SwitchId d = 0; d < 9; ++d) {
      const SwitchPath& p = sr.route(s, d);
      for (std::size_t h = 0; h < p.cable.size(); ++h) {
        ++expect[uz(t.channel_from_switch(p.sw[h], p.cable[h]))];
      }
    }
  }
  EXPECT_EQ(sr.channel_weights(), expect);
}

TEST(SimpleRoutes, DeterministicPerSeedAndSensitiveToSeed) {
  const Topology t = make_torus_2d(4, 4, 1);
  const UpDown ud(t, 0);
  SimpleRoutesOptions o1;
  o1.seed = 7;
  const SimpleRoutes a(t, ud, o1), b(t, ud, o1);
  int diff_seed = 0;
  SimpleRoutesOptions o2;
  o2.seed = 8;
  const SimpleRoutes c(t, ud, o2);
  for (SwitchId s = 0; s < 16; ++s) {
    for (SwitchId d = 0; d < 16; ++d) {
      EXPECT_EQ(a.route(s, d), b.route(s, d));
      if (!(a.route(s, d) == c.route(s, d))) ++diff_seed;
    }
  }
  EXPECT_GT(diff_seed, 0) << "different seeds should balance differently";
}

TEST(SimpleRoutes, BalancesBetterThanFirstCandidate) {
  const Topology t = make_torus_2d(8, 8, 1);
  const UpDown ud(t, 0);
  const SimpleRoutes sr(t, ud);
  // Max channel weight with balancing must beat always-take-candidate-0.
  std::vector<int> naive(uz(t.num_channels()), 0);
  for (SwitchId s = 0; s < 64; ++s) {
    for (SwitchId d = 0; d < 64; ++d) {
      if (s == d) continue;
      const auto p = ud.shortest_legal_paths(s, d, 1).front();
      for (std::size_t h = 0; h < p.cable.size(); ++h) {
        ++naive[uz(t.channel_from_switch(p.sw[h], p.cable[h]))];
      }
    }
  }
  const int naive_max = *std::max_element(naive.begin(), naive.end());
  const auto& w = sr.channel_weights();
  const int balanced_max = *std::max_element(w.begin(), w.end());
  EXPECT_LT(balanced_max, naive_max);
}

// FNV-1a over every selected path (hop count, switches, cables) in pair
// order, then every channel weight.
std::uint64_t simple_routes_digest(const SimpleRoutes& sr, int n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const SwitchPath& p = sr.route(s, d);
      mix(p.hops());
      for (const SwitchId w : p.sw) mix(w);
      for (const CableId c : p.cable) mix(c);
    }
  }
  for (const int w : sr.channel_weights()) mix(w);
  return h;
}

// Candidate enumeration fans out per source block; every jobs value must
// give the same table.  The digests pin the selection itself: a change to
// one changes which paths the UP/DOWN baseline runs.
TEST(SimpleRoutesParallel, JobsInvariantAndGolden) {
  struct Case {
    const char* name;
    Topology topo;
    SwitchId root;
    std::uint64_t golden_minmax;
    std::uint64_t golden_minsum;
    int max_candidates = 16;
    int refine_passes = 2;
  };
  std::vector<Case> cases;
  cases.push_back({"torus8x8", make_torus_2d(8, 8, 1), 0,
                   0xc116a5f4a8b36f19ull, 0x562f1efb934a9f82ull});
  cases.push_back({"express8x8", make_torus_2d_express(8, 8, 1), kAutoRoot,
                   0x274eac297680a144ull, 0xefade384691d7e43ull});
  cases.push_back({"hyperx16x16", make_hyperx({16, 16}, 1), kAutoRoot,
                   0x9271763c0244c86eull, 0x7995914eef120d3full});
  cases.push_back({"dragonfly4x4x2", make_dragonfly(4, 4, 2), kAutoRoot,
                   0x32b25c573f5f335eull, 0x41c037287c60a67cull});
  // Two candidates and three refine passes: the cap truncates most
  // pairs' candidate lists, and refinement re-places every pair.
  cases.push_back({"hyperx16x16 truncated", make_hyperx({16, 16}, 1),
                   kAutoRoot, 0x5268a01c3441c848ull, 0x0c72cd84277cb11bull,
                   /*max_candidates=*/2, /*refine_passes=*/3});
  for (const Case& c : cases) {
    const UpDown ud(c.topo, c.root == kAutoRoot ? select_updown_root(c.topo)
                                                : c.root);
    const int n = c.topo.num_switches();
    for (const BalanceObjective obj :
         {BalanceObjective::kMinMax, BalanceObjective::kMinSum}) {
      SCOPED_TRACE(std::string(c.name) +
                   (obj == BalanceObjective::kMinMax ? " minmax" : " minsum"));
      SimpleRoutesOptions o;
      o.objective = obj;
      o.max_candidates = c.max_candidates;
      o.refine_passes = c.refine_passes;
      const SimpleRoutes serial(c.topo, ud, o, 1);
      const std::uint64_t digest = simple_routes_digest(serial, n);
      EXPECT_EQ(digest, obj == BalanceObjective::kMinMax ? c.golden_minmax
                                                         : c.golden_minsum)
          << "digest 0x" << std::hex << digest;
      for (const int jobs : {2, 4}) {
        const SimpleRoutes par(c.topo, ud, o, jobs);
        EXPECT_EQ(par.channel_weights(), serial.channel_weights())
            << "jobs=" << jobs;
        int mismatches = 0;
        for (SwitchId s = 0; s < n; ++s) {
          for (SwitchId d = 0; d < n; ++d) {
            if (!(par.route(s, d) == serial.route(s, d))) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "jobs=" << jobs;
      }
    }
  }
}

TEST(SimpleRoutes, RejectsOutOfRangeOptions) {
  const Topology t = make_torus_2d(4, 4, 1);
  const UpDown ud(t, 0);
  const auto throws_naming = [&](SimpleRoutesOptions o, const char* field) {
    try {
      const SimpleRoutes sr(t, ud, o);
      ADD_FAILURE() << "accepted bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  SimpleRoutesOptions o;
  o.max_candidates = 0;
  throws_naming(o, "max_candidates");
  o.max_candidates = -3;
  throws_naming(o, "max_candidates");
  // The chosen candidate is a 16-bit per-pair index.
  o.max_candidates = SimpleRoutes::kMaxCandidates + 1;
  throws_naming(o, "max_candidates");
  o = {};
  o.refine_passes = -1;
  throws_naming(o, "refine_passes");
  // The extremes of the accepted range still build.
  o = {};
  o.max_candidates = 1;
  o.refine_passes = 0;
  EXPECT_NO_THROW(SimpleRoutes(t, ud, o));
  o.max_candidates = SimpleRoutes::kMaxCandidates;
  EXPECT_NO_THROW(SimpleRoutes(t, ud, o));
}

// ---- ITB splitting ----

TEST(ItbSplit, LegalPathNeedsNoSplit) {
  const Topology t = make_torus_2d(4, 4, 1);
  const UpDown ud(t, 0);
  const auto p = ud.shortest_legal_paths(5, 10, 1).front();
  EXPECT_TRUE(itb_split_points(ud, p).empty());
}

TEST(ItbSplit, SegmentsLegalAndConcatenate) {
  std::vector<Topology> topos;
  topos.push_back(make_torus_2d(8, 8, 1));
  topos.push_back(make_torus_2d_express(8, 8, 1));
  Rng rng(3);
  topos.push_back(make_irregular(14, 2, 5, rng));
  for (const Topology& t : topos) {
    const UpDown ud(t, 0);
    int with_split = 0;
    for (SwitchId s = 0; s < t.num_switches(); s += 3) {
      for (SwitchId d = 0; d < t.num_switches(); ++d) {
        if (s == d) continue;
        for (const auto& p : enumerate_minimal_paths(t, s, d, 4)) {
          const auto splits = itb_split_points(ud, p);
          const auto segs = split_path(p, splits);
          ASSERT_EQ(segs.size(), splits.size() + 1);
          if (!splits.empty()) ++with_split;
          // Each segment legal, consistent; concatenation reproduces p.
          std::vector<CableId> cat;
          for (std::size_t i = 0; i < segs.size(); ++i) {
            EXPECT_TRUE(ud.legal(segs[i])) << t.name();
            EXPECT_TRUE(path_is_consistent(t, segs[i]));
            if (i > 0) {
              EXPECT_EQ(segs[i].src(), segs[i - 1].dst());
            }
            cat.insert(cat.end(), segs[i].cable.begin(), segs[i].cable.end());
          }
          EXPECT_EQ(cat, p.cable);
        }
      }
    }
    EXPECT_GT(with_split, 0) << t.name() << ": expected some splits";
  }
}

TEST(ItbSplit, SplitCountIsMinimalForThePath) {
  // Greedy split at each violation is optimal for a fixed path: fewer
  // splits would leave one segment with a down->up transition.  Verify by
  // checking that merging any adjacent pair of segments is illegal.
  const Topology t = make_torus_2d(8, 8, 1);
  const UpDown ud(t, 0);
  int checked = 0;
  for (SwitchId s = 0; s < 64 && checked < 200; s += 5) {
    for (SwitchId d = 0; d < 64 && checked < 200; ++d) {
      if (s == d) continue;
      for (const auto& p : enumerate_minimal_paths(t, s, d, 3)) {
        const auto splits = itb_split_points(ud, p);
        if (splits.empty()) continue;
        const auto segs = split_path(p, splits);
        for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
          SwitchPath merged = segs[i];
          merged.sw.insert(merged.sw.end(), segs[i + 1].sw.begin() + 1,
                           segs[i + 1].sw.end());
          merged.cable.insert(merged.cable.end(), segs[i + 1].cable.begin(),
                              segs[i + 1].cable.end());
          EXPECT_FALSE(ud.legal(merged));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---- route builder ----

// Follow alternative `alt` of (s, d) port by port through the topology and
// check the ports form a real walk ending at the right hosts.
void check_route_walk(const Topology& t, const RouteSet& rs, SwitchId s,
                      SwitchId d, int alt) {
  const RouteView r = rs.view(s, d, alt);
  SwitchId at = s;
  std::vector<SwitchId> visited{at};
  for (std::size_t li = 0; li < r.legs.size(); ++li) {
    const LegView leg = r.legs[li];
    const bool final_leg = li + 1 == r.legs.size();
    for (std::size_t pi = 0; pi < leg.ports.size(); ++pi) {
      const PortPeer& peer = t.peer(at, leg.ports[pi]);
      const bool last_port = pi + 1 == leg.ports.size();
      if (!final_leg && last_port) {
        ASSERT_EQ(peer.kind, PeerKind::kHost);
        EXPECT_EQ(peer.host, leg.end_host);
        EXPECT_EQ(t.host(leg.end_host).sw, at);
      } else {
        ASSERT_EQ(peer.kind, PeerKind::kSwitch) << "port must lead onward";
        at = peer.sw;
        visited.push_back(at);
      }
    }
  }
  EXPECT_EQ(at, r.dst_switch);
  // The table's own reconstruction (composition tables) must agree with
  // the topology walk above.
  EXPECT_EQ(visited, rs.materialize(s, d, alt).switches);
}

TEST(RouteBuilder, UpdownRoutesWalkTheTopology) {
  const Topology t = make_torus_2d(4, 4, 2);
  const UpDown ud(t, 0);
  const SimpleRoutes sr(t, ud);
  const RouteSet rs = build_updown_routes(t, sr);
  EXPECT_EQ(rs.algorithm(), RoutingAlgorithm::kUpDown);
  for (SwitchId s = 0; s < 16; ++s) {
    for (SwitchId d = 0; d < 16; ++d) {
      const auto& alts = rs.alternatives(s, d);
      ASSERT_EQ(alts.size(), 1u);
      EXPECT_EQ(alts[0].num_itbs(), 0);
      EXPECT_EQ(alts[0].legs.size(), 1u);
      check_route_walk(t, rs, s, d, 0);
    }
  }
}

TEST(RouteBuilder, ItbRoutesAreMinimalAndWalk) {
  const Topology t = make_torus_2d(4, 4, 2);
  const UpDown ud(t, 0);
  const RouteSet rs = build_itb_routes(t, ud);
  const auto dist = t.all_switch_distances();
  for (SwitchId s = 0; s < 16; ++s) {
    for (SwitchId d = 0; d < 16; ++d) {
      const auto& alts = rs.alternatives(s, d);
      ASSERT_FALSE(alts.empty());
      ASSERT_LE(alts.size(), 10u);
      for (std::size_t a = 0; a < alts.size(); ++a) {
        const RouteView r = alts[a];
        EXPECT_EQ(r.total_switch_hops, dist[uz(s) * 16 + uz(d)]);
        EXPECT_EQ(static_cast<int>(r.legs.size()), r.num_itbs() + 1);
        check_route_walk(t, rs, s, d, static_cast<int>(a));
      }
    }
  }
}

TEST(RouteBuilder, ItbHostsSpreadAcrossSwitchHosts) {
  const Topology t = make_torus_2d(8, 8, 8);
  const UpDown ud(t, 0);
  const RouteSet rs = build_itb_routes(t, ud);
  std::set<HostId> used;
  for (SwitchId s = 0; s < 64; ++s) {
    for (SwitchId d = 0; d < 64; ++d) {
      for (const RouteView r : rs.alternatives(s, d)) {
        for (std::size_t li = 0; li + 1 < r.legs.size(); ++li) {
          used.insert(r.legs[li].end_host);
        }
      }
    }
  }
  // With hashing over 8 hosts per switch, far more than one host per
  // switch must be in use overall.
  EXPECT_GT(used.size(), 100u);
}

TEST(RouteBuilder, SameSwitchPairHasEmptyPortList) {
  const Topology t = make_torus_2d(4, 4, 2);
  const UpDown ud(t, 0);
  const RouteSet rs = build_itb_routes(t, ud);
  const auto& alts = rs.alternatives(3, 3);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_TRUE(alts[0].legs[0].ports.empty());
  EXPECT_EQ(alts[0].total_switch_hops, 0);
}

TEST(RouteBuilder, SplitSwitchWithoutHostsFallsBackToLegal) {
  // Hand-built network where the only minimal path's split switch has no
  // hosts: triangle with a cross edge.  Switches: 0 root, 1, 2, 3.
  Topology t(4, 8, "hostless-split");
  t.connect_auto(0, 1);
  t.connect_auto(0, 2);
  t.connect_auto(1, 3);
  t.connect_auto(2, 3);
  t.attach_hosts(1, 1);
  t.attach_hosts(2, 1);
  // No hosts on 0 and 3.  Pair (1, 2): minimal 1-0-2 (up then down, legal)
  // and 1-3-2 (down then up, illegal; split switch 3 has no hosts).
  const UpDown ud(t, 0);
  const RouteSet rs = build_itb_routes(t, ud);
  const auto& alts = rs.alternatives(1, 2);
  ASSERT_FALSE(alts.empty());
  for (const RouteView r : alts) {
    EXPECT_EQ(r.num_itbs(), 0) << "infeasible split candidates must be dropped";
  }
}

TEST(RouteStats, TorusMatchesPaperProse) {
  // §4.7.1: avg distance 4.57 (up*/down*) vs 4.06 (minimal/ITB); 80%
  // minimal paths for UP/DOWN; 100% for ITB by construction.
  const Topology t = make_torus_2d(8, 8, 8);
  const UpDown ud(t, 0);
  const SimpleRoutes sr(t, ud);
  const auto ud_stats = analyze_routes(t, build_updown_routes(t, sr));
  EXPECT_NEAR(ud_stats.avg_hops_sp, 4.57, 0.03);
  EXPECT_NEAR(ud_stats.minimal_fraction_sp, 0.80, 0.05);
  EXPECT_EQ(ud_stats.avg_itbs_sp, 0.0);

  const auto itb_stats = analyze_routes(t, build_itb_routes(t, ud));
  EXPECT_NEAR(itb_stats.avg_hops_sp, 4.06, 0.02);
  EXPECT_DOUBLE_EQ(itb_stats.minimal_fraction_sp, 1.0);
  // Paper: ITB-SP uses 0.43 in-transit buffers per message under uniform
  // traffic; the static per-pair average with DFS-ordered alternatives
  // lands in the same range.
  EXPECT_NEAR(itb_stats.avg_itbs_sp, 0.43, 0.12);
  EXPECT_GT(itb_stats.avg_alternatives, 3.0);
  EXPECT_LE(itb_stats.avg_alternatives, 10.0);
}

class RouteBuilderRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteBuilderRandom, ItbTableValidOnRandomIrregular) {
  Rng rng(GetParam());
  const Topology t = make_irregular(12, 2, 5, rng);
  const UpDown ud(t, 0);
  const RouteSet rs = build_itb_routes(t, ud);
  for (SwitchId s = 0; s < t.num_switches(); ++s) {
    for (SwitchId d = 0; d < t.num_switches(); ++d) {
      const auto& alts = rs.alternatives(s, d);
      ASSERT_FALSE(alts.empty());
      for (std::size_t a = 0; a < alts.size(); ++a) {
        check_route_walk(t, rs, s, d, static_cast<int>(a));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteBuilderRandom,
                         ::testing::Range<std::uint64_t>(200, 210));

}  // namespace
}  // namespace itb
