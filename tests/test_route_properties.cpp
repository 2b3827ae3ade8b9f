// Property-based verification of every installed routing table: for each
// paper testbed (2-D torus, express torus, CPLANT) the full ITB table
// (shared by ITB-SP and ITB-RR) and the UP/DOWN table are fed through the
// check/route_verify re-derivation — every leg up*/down*-legal, every ITB
// path minimal in the unrestricted graph, in-transit buffers exactly at the
// violating switches, alternatives capped at 10 and pairwise distinct.
// The verifier itself is then tested negatively: seeded table corruptions
// (illegal leg, lost ITB, duplicated alternative, over-cap table) must each
// be flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/route_verify.hpp"
#include "harness/testbed.hpp"
#include "support/route_reference.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

struct NamedTestbed {
  std::string name;
  Testbed tb;
};

std::vector<NamedTestbed> paper_testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"torus", Testbed(make_torus_2d(8, 8, 2))});
  out.push_back({"express", Testbed(make_torus_2d_express(8, 8, 2))});
  out.push_back({"cplant", Testbed(make_cplant())});
  return out;
}

/// The low-diameter frontier cells (PR 8): dense graphs where the
/// up*/down* tree concentrates, so ITB splitting is exercised hard.  All
/// auto-rooted, like the benches.
std::vector<NamedTestbed> lowdiameter_testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"hyperx4x4", Testbed(make_hyperx({4, 4}, 2), kAutoRoot)});
  out.push_back(
      {"dragonfly422", Testbed(make_dragonfly(4, 2, 2), kAutoRoot)});
  out.push_back({"fullmesh16", Testbed(make_full_mesh(16, 2), kAutoRoot)});
  return out;
}

std::vector<NamedTestbed> all_testbeds() {
  std::vector<NamedTestbed> out = paper_testbeds();
  for (NamedTestbed& t : lowdiameter_testbeds()) {
    out.push_back(std::move(t));
  }
  return out;
}

TEST(RouteProperties, ItbTablesVerifyCleanOnEveryTestbed) {
  for (const NamedTestbed& t : all_testbeds()) {
    const RouteSet& routes = t.tb.routes(RoutingScheme::kItbSp);
    // Strict mode: these testbeds all have hosts on every switch, so
    // the legal-shortest fallback must never be needed — every route is
    // genuinely minimal.
    RouteVerifyOptions opts;
    opts.allow_legal_fallback = false;
    const RouteVerifyReport rep =
        verify_route_set(t.tb.topo(), t.tb.updown(), routes, opts);
    EXPECT_TRUE(rep.ok()) << t.name << ": " << rep.violations.size()
                          << " violations; first: "
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().detail);
    const int n = t.tb.topo().num_switches();
    EXPECT_EQ(rep.pairs_checked,
              static_cast<std::uint64_t>(n) * (n - 1))
        << t.name;
    EXPECT_GE(rep.routes_checked, rep.pairs_checked) << t.name;
  }
}

TEST(RouteProperties, ItbSpAndItbRrShareOneVerifiedTable) {
  // ITB-SP and ITB-RR differ only in path policy: one verified table
  // covers both schemes by construction.
  for (const NamedTestbed& t : all_testbeds()) {
    EXPECT_EQ(&t.tb.routes(RoutingScheme::kItbSp),
              &t.tb.routes(RoutingScheme::kItbRr))
        << t.name;
  }
}

TEST(RouteProperties, UpDownTablesVerifyCleanOnEveryTestbed) {
  for (const NamedTestbed& t : all_testbeds()) {
    const RouteVerifyReport rep = verify_route_set(
        t.tb.topo(), t.tb.updown(), t.tb.routes(RoutingScheme::kUpDown));
    EXPECT_TRUE(rep.ok()) << t.name << ": "
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().detail);
  }
}

TEST(RouteProperties, MinimalTablesVerifyCleanOnLowDiameterTestbeds) {
  // The kMinimal contract in check/route_verify: exactly one alternative
  // per pair, no ITBs, hop count equal to the BFS distance.
  for (const NamedTestbed& t : lowdiameter_testbeds()) {
    const RouteSet& routes = t.tb.routes(RoutingScheme::kMinimal);
    const RouteVerifyReport rep =
        verify_route_set(t.tb.topo(), t.tb.updown(), routes);
    EXPECT_TRUE(rep.ok()) << t.name << ": "
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().detail);
    const int n = t.tb.topo().num_switches();
    EXPECT_EQ(rep.pairs_checked, static_cast<std::uint64_t>(n) * (n - 1))
        << t.name;
  }
}

TEST(RouteVerifierNegative, DetectsNonMinimalMinTable) {
  // Stretch one MIN route by a detour: the kMinimal minimality check (not
  // the up*/down* legality check, which MIN tables are exempt from) must
  // fire.
  const Testbed tb(make_full_mesh(8, 2), kAutoRoot);
  const RouteSet& min_routes = tb.routes(RoutingScheme::kMinimal);
  RouteTable routes = materialize_all(min_routes);
  auto& alts = routes[pair_key(8, 0, 1)];
  ASSERT_EQ(alts.size(), 1u);
  ASSERT_EQ(alts[0].total_switch_hops, 1);
  // 0 -> 2 -> 1: both hops exist in a full mesh.
  Route via2 = min_routes.materialize(0, 2, 0);
  const Route second = min_routes.materialize(2, 1, 0);
  via2.dst_switch = 1;
  via2.legs[0].ports.push_back(second.legs[0].ports[0]);
  via2.legs[0].switch_hops = 2;
  via2.total_switch_hops = 2;
  via2.switches = {0, 2, 1};
  alts[0] = via2;
  const RouteSet flat =
      factorize(tb.topo(), RoutingAlgorithm::kMinimal, routes);
  const RouteVerifyReport rep =
      verify_route_set(tb.topo(), tb.updown(), flat);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_NE(rep.violations[0].detail.find("path has 2 hops"),
            std::string::npos)
      << rep.violations[0].detail;
}

TEST(RouteProperties, AlternativesCappedAndDistinct) {
  // The verifier covers this, but assert the raw table shape directly so a
  // verifier bug cannot mask a table bug.
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteSet& routes = tb.routes(RoutingScheme::kItbRr);
  const int n = tb.topo().num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      if (s == d) continue;
      const AltsView alts = routes.alternatives(s, d);
      ASSERT_FALSE(alts.empty());
      EXPECT_LE(alts.size(), 10u);
      for (std::size_t i = 0; i < alts.size(); ++i) {
        for (std::size_t j = i + 1; j < alts.size(); ++j) {
          const Route a = routes.materialize(s, d, static_cast<int>(i));
          const Route b = routes.materialize(s, d, static_cast<int>(j));
          EXPECT_FALSE(a.switches == b.switches && a.legs.size() == b.legs.size())
              << "pair " << s << "->" << d << " alternatives " << i << "/"
              << j << " identical";
        }
      }
    }
  }
}

// --- negative: the verifier must catch seeded table corruptions ---------

Testbed small_testbed() { return Testbed(make_torus_2d(4, 4, 2)); }

// Mutation fixtures inflate the immutable store into owning Routes,
// corrupt them, and factorize the result for verification.
RouteTable copy_itb_table(const Testbed& tb) {
  return materialize_all(tb.routes(RoutingScheme::kItbSp));
}

RouteSet itb_table(const Testbed& tb, const RouteTable& routes) {
  return factorize(tb.topo(), RoutingAlgorithm::kItb, routes);
}

std::uint64_t verify_count(const Testbed& tb, const RouteTable& routes) {
  return verify_route_set(tb.topo(), tb.updown(), itb_table(tb, routes))
      .violations.size();
}

TEST(RouteVerifierNegative, DetectsMissingItbSplit) {
  const Testbed tb = small_testbed();
  RouteTable routes = copy_itb_table(tb);
  ASSERT_EQ(verify_count(tb, routes), 0u);
  // Find a split route and fuse its legs into one illegal leg (the
  // down->up path an ITB was supposed to break).
  bool mutated = false;
  for (std::vector<Route>& alts : routes) {
    for (Route& r : alts) {
      if (mutated || r.num_itbs() == 0) continue;
      RouteLeg fused;
      for (std::size_t li = 0; li < r.legs.size(); ++li) {
        const RouteLeg& leg = r.legs[li];
        const bool final_leg = li + 1 == r.legs.size();
        const std::size_t nports =
            leg.ports.size() - (final_leg ? 0 : 1);  // drop eject ports
        fused.ports.insert(fused.ports.end(), leg.ports.begin(),
                           leg.ports.begin() +
                               static_cast<std::ptrdiff_t>(nports));
        fused.switch_hops += leg.switch_hops;
      }
      r.legs = {fused};
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated) << "4x4 torus must have at least one split route";
  EXPECT_GT(verify_count(tb, routes), 0u);
}

TEST(RouteVerifierNegative, DetectsCorruptPortWalk) {
  const Testbed tb = small_testbed();
  RouteTable routes = copy_itb_table(tb);
  // Point the first port byte of a one-hop route at a host port: the walk
  // no longer reaches a switch.
  Route& r = routes[pair_key(16, 0, 1)][0];
  ASSERT_EQ(r.legs.size(), 1u);
  ASSERT_EQ(r.total_switch_hops, 1);
  r.legs[0].ports[0] = tb.topo().host(tb.topo().hosts_of_switch(0)[0]).port;
  EXPECT_GT(verify_count(tb, routes), 0u);
}

TEST(RouteVerifierNegative, DetectsDuplicateAndOverCapAlternatives) {
  const Testbed tb = small_testbed();
  RouteTable routes = copy_itb_table(tb);
  auto& alts = routes[pair_key(16, 0, 5)];
  ASSERT_FALSE(alts.empty());
  alts.push_back(alts.front());  // duplicate
  EXPECT_GT(verify_count(tb, routes), 0u);
  while (alts.size() <= 10) alts.push_back(alts.front());
  const auto rep = verify_route_set(tb.topo(), tb.updown(),
                                    itb_table(tb, routes));
  bool over_cap = false;
  for (const auto& v : rep.violations) {
    if (v.detail.find("cap is") != std::string::npos) over_cap = true;
  }
  EXPECT_TRUE(over_cap);
}

TEST(RouteVerifierNegative, DetectsNonMinimalPath) {
  // On the torus every up*/down* route happens to be minimal, so build the
  // 5-switch fixture from test_network_itb: pair (3 -> 2) has minimal
  // distance 2 (the illegal path through switch 4) but legal distance 3
  // (3-1-0-2).  Swapping the split 2-hop ITB route for the 3-hop up*/down*
  // detour produces exactly the legal-shortest-fallback shape.
  Topology t(5, 8, "itb-fixture");
  t.connect_auto(0, 1);
  t.connect_auto(0, 2);
  t.connect_auto(1, 3);
  t.connect_auto(2, 4);
  t.connect_auto(3, 4);
  for (SwitchId s = 0; s < 5; ++s) t.attach_hosts(s, 2);
  const Testbed tb(std::move(t));
  RouteTable routes = copy_itb_table(tb);
  const Route detour = tb.routes(RoutingScheme::kUpDown).materialize(3, 2, 0);
  ASSERT_EQ(detour.total_switch_hops, 3);
  auto& alts = routes[pair_key(5, 3, 2)];
  ASSERT_EQ(alts[0].total_switch_hops, 2);
  alts.clear();
  alts.push_back(detour);
  // Strict mode must flag it; fallback mode accepts exactly this shape
  // (single legal alternative at legal distance), documenting the
  // build_itb_routes escape hatch for pairs with no usable minimal path.
  const RouteSet flat = itb_table(tb, routes);
  RouteVerifyOptions strict;
  strict.allow_legal_fallback = false;
  EXPECT_FALSE(verify_route_set(tb.topo(), tb.updown(), flat, strict).ok());
  EXPECT_TRUE(verify_route_set(tb.topo(), tb.updown(), flat).ok());
}

}  // namespace
}  // namespace itb
