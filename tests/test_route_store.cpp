// The factorized route store against the reference builder
// (tests/support/route_reference.hpp), which compiles every alternative
// into an owning Route the slow, obvious way:
//
//  - Differential: every builder must install, pair for pair and
//    alternative for alternative, exactly the reference table — on the
//    paper testbeds and dense low-diameter graphs, and on a pair sample of
//    256-switch beds.  The reference table staged through factorize must
//    also land at the builder's footprint and materialize back unchanged.
//  - Jobs identity: staging rows fan out across the thread pool, but every
//    raw array is byte-identical for any jobs value.
//  - Dedup: walking the raw arrays reconstructs every leg exactly.
//  - Golden: digests of the raw arrays and of every composed view pin the
//    tables across refactors.
//  - Scale: a bench-ladder table passes the route-legality verifier.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/route_verify.hpp"
#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
#include "route/topo_minimal.hpp"
#include "support/route_reference.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

struct NamedTestbed {
  std::string name;
  Testbed tb;
};

/// The paper testbeds plus small dense low-diameter graphs: sparse tori
/// with long routes and many in-transit legs at one corner of the store's
/// input space; short routes, huge alternative fan-out and heavy segment
/// sharing at the other.
std::vector<NamedTestbed> testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"torus", Testbed(make_torus_2d(8, 8, 2))});
  out.push_back({"express", Testbed(make_torus_2d_express(8, 8, 2))});
  out.push_back({"cplant", Testbed(make_cplant())});
  out.push_back({"hyperx4x4", Testbed(make_hyperx({4, 4}, 2), kAutoRoot)});
  out.push_back({"dragonfly422", Testbed(make_dragonfly(4, 2, 2), kAutoRoot)});
  out.push_back({"fullmesh16", Testbed(make_full_mesh(16, 2), kAutoRoot)});
  return out;
}

/// Larger dense graphs: many equal-length minimal paths, so ITB tables
/// carry real alternative lists and in-transit legs — the cases where the
/// composed host choice actually matters.
std::vector<NamedTestbed> dense_testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"hyperx8x8", Testbed(make_hyperx({8, 8}, 2), kAutoRoot)});
  out.push_back({"dragonfly442", Testbed(make_dragonfly(4, 4, 2), kAutoRoot)});
  out.push_back({"torus8x8", Testbed(make_torus_2d(8, 8, 2))});
  return out;
}

/// `built` materializes to exactly `want` (Route == covers legs, hosts,
/// switch walk and alt tag), and `want` staged through factorize lands at
/// the same footprint and materializes back unchanged.
void expect_matches_reference(const std::string& name, const Topology& topo,
                              const RouteTable& want, const RouteSet& built) {
  const int n = built.num_switches();
  ASSERT_EQ(want.size(), static_cast<std::size_t>(n) * n) << name;
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& alts = want[pair_key(n, s, d)];
      const AltsView got = built.alternatives(s, d);
      ASSERT_EQ(got.size(), alts.size()) << name << ": " << s << "->" << d;
      for (std::size_t a = 0; a < alts.size(); ++a) {
        EXPECT_EQ(built.materialize(s, d, static_cast<int>(a)), alts[a])
            << name << ": " << s << "->" << d << " alternative " << a;
      }
    }
  }
  const RouteSet again = factorize(topo, built.algorithm(), want);
  EXPECT_EQ(again.table_bytes(), built.table_bytes()) << name;
  EXPECT_TRUE(materialize_all(again) == want) << name;
}

TEST(RouteStoreDifferential, UpDownMatchesReference) {
  for (const NamedTestbed& t : testbeds()) {
    const SimpleRoutes sr(t.tb.topo(), t.tb.updown());
    expect_matches_reference(t.name, t.tb.topo(),
                             reference_updown_table(t.tb.topo(), sr),
                             build_updown_routes(t.tb.topo(), sr));
  }
}

TEST(RouteStoreDifferential, MinimalMatchesReference) {
  for (const NamedTestbed& t : testbeds()) {
    if (!has_structured_minimal(t.tb.topo())) continue;
    const RouteSet built = build_minimal_routes(t.tb.topo());
    EXPECT_EQ(built.algorithm(), RoutingAlgorithm::kMinimal) << t.name;
    expect_matches_reference(t.name, t.tb.topo(),
                             reference_minimal_table(t.tb.topo()), built);
  }
}

TEST(RouteStoreDifferential, ItbMatchesReference) {
  for (const NamedTestbed& t : testbeds()) {
    expect_matches_reference(
        t.name, t.tb.topo(), reference_itb_table(t.tb.topo(), t.tb.updown()),
        build_itb_routes(t.tb.topo(), t.tb.updown()));
  }
}

TEST(RouteStoreFactorized, ComposedViewsMatchCompiledRoutesEveryScheme) {
  for (const NamedTestbed& t : dense_testbeds()) {
    const Topology& topo = t.tb.topo();
    const SimpleRoutes sr(topo, t.tb.updown());
    expect_matches_reference(t.name + "/updown", topo,
                             reference_updown_table(topo, sr),
                             build_updown_routes(topo, sr));
    expect_matches_reference(t.name + "/itb", topo,
                             reference_itb_table(topo, t.tb.updown()),
                             build_itb_routes(topo, t.tb.updown()));
    if (has_structured_minimal(topo)) {
      expect_matches_reference(t.name + "/minimal", topo,
                               reference_minimal_table(topo),
                               build_minimal_routes(topo));
    }
  }
}

TEST(RouteStoreFactorized, SampledDifferentialOnMediumTestbeds) {
  // The beds above compare all pairs; the 256-switch bench-ladder beds
  // are compared on a deterministic LCG pair sample so the reference
  // build stays cheap enough for the fast suite.
  std::vector<NamedTestbed> beds;
  beds.push_back({"hyperx16x16", Testbed(make_hyperx({16, 16}, 8), kAutoRoot)});
  beds.push_back({"dragonfly884", Testbed(make_dragonfly(8, 8, 4), kAutoRoot)});
  for (const NamedTestbed& t : beds) {
    const Topology& topo = t.tb.topo();
    const RouteSet built = build_itb_routes(topo, t.tb.updown());
    const auto n = static_cast<std::uint64_t>(topo.num_switches());
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int i = 0; i < 4096; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto s = static_cast<SwitchId>((lcg >> 33) % n);
      const auto d = static_cast<SwitchId>((lcg >> 13) % n);
      const std::vector<Route> want = reference_itb_pair(
          topo, t.tb.updown(), {}, s, d, topo.switch_distances_from(d));
      const AltsView got = built.alternatives(s, d);
      ASSERT_EQ(got.size(), want.size()) << t.name << ": " << s << "->" << d;
      for (std::size_t a = 0; a < want.size(); ++a) {
        ASSERT_EQ(built.materialize(s, d, static_cast<int>(a)), want[a])
            << t.name << ": " << s << "->" << d << " alternative " << a;
      }
    }
  }
}

TEST(RouteStoreDifferential, FactorizeRejectsRoutesThatCannotCompose) {
  // The 5-switch ITB fixture: pair (3, 2) is 3-4-2 with one in-transit
  // host on switch 4.
  Topology topo(5, 8, "itb-fixture");
  topo.connect_auto(0, 1);
  topo.connect_auto(0, 2);
  topo.connect_auto(1, 3);
  topo.connect_auto(2, 4);
  topo.connect_auto(3, 4);
  for (SwitchId s = 0; s < 5; ++s) topo.attach_hosts(s, 2);
  const UpDown ud(topo, 0);
  const RouteTable table = materialize_all(build_itb_routes(topo, ud));
  const std::size_t key = pair_key(5, 3, 2);
  ASSERT_EQ(table[key][0].num_itbs(), 1);

  // A hand-picked in-transit host that the composition mix would not
  // choose.
  RouteTable other_host = table;
  RouteLeg& leg0 = other_host[key][0].legs[0];
  for (const HostId h : topo.hosts_of_switch(4)) {
    if (h != leg0.end_host) {
      leg0.end_host = h;
      leg0.ports.back() = topo.host(h).port;
      break;
    }
  }
  EXPECT_THROW((void)factorize(topo, RoutingAlgorithm::kItb, other_host),
               std::invalid_argument);

  // An intermediate leg whose walk leaves the switch graph.
  RouteTable off_graph = table;
  off_graph[key][0].legs[0].ports.front() =
      topo.host(topo.hosts_of_switch(3)[0]).port;
  EXPECT_THROW((void)factorize(topo, RoutingAlgorithm::kItb, off_graph),
               std::invalid_argument);

  // A corrupt final-leg walk stays representable for the verifier's
  // negative tests.
  RouteTable corrupt_final = table;
  corrupt_final[key][0].legs[1].ports.front() =
      topo.host(topo.hosts_of_switch(4)[0]).port;
  EXPECT_NO_THROW(
      (void)factorize(topo, RoutingAlgorithm::kItb, corrupt_final));
}

// --- jobs identity -------------------------------------------------------

template <typename T>
::testing::AssertionResult spans_byte_identical(std::span<const T> a,
                                                std::span<const T> b,
                                                const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size_bytes()) != 0) {
    return ::testing::AssertionFailure() << what << ": bytes differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_stores_byte_identical(const RouteSet& x, const RouteSet& y,
                                  const std::string& label) {
  EXPECT_TRUE(spans_byte_identical(x.port_pool(), y.port_pool(), "port_pool"))
      << label;
  EXPECT_TRUE(spans_byte_identical(x.walks(), y.walks(), "walks")) << label;
  EXPECT_TRUE(spans_byte_identical(x.route_walks(), y.route_walks(),
                                   "route_walks"))
      << label;
  EXPECT_TRUE(spans_byte_identical(x.core_routes(), y.core_routes(),
                                   "core_routes"))
      << label;
  EXPECT_TRUE(spans_byte_identical(x.alt_routes(), y.alt_routes(),
                                   "alt_routes"))
      << label;
  EXPECT_TRUE(spans_byte_identical(x.altlists(), y.altlists(), "altlists"))
      << label;
  EXPECT_TRUE(spans_byte_identical(x.pair_altlist(), y.pair_altlist(),
                                   "pair_altlist"))
      << label;
  EXPECT_EQ(x.table_bytes(), y.table_bytes()) << label;
  EXPECT_EQ(x.segments_shared(), y.segments_shared()) << label;
}

// Global intern ids are assigned in first-appearance order over the
// canonical pair stream (destination-major for ITB, source-major
// otherwise), so every fan-out must reproduce the serial arrays exactly,
// not just the same route values.

TEST(RouteStoreParallelBuild, ItbTableIdenticalAcrossJobCounts) {
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteSet serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
  for (const int jobs : {2, 8}) {
    expect_stores_byte_identical(
        serial, build_itb_routes(tb.topo(), tb.updown(), {}, jobs),
        "itb jobs=" + std::to_string(jobs));
  }
}

TEST(RouteStoreParallelBuild, UpDownTableIdenticalAcrossJobCounts) {
  const Testbed tb(make_torus_2d(8, 8, 2));
  const SimpleRoutes sr(tb.topo(), tb.updown());
  const RouteSet serial = build_updown_routes(tb.topo(), sr, 1);
  for (const int jobs : {2, 8}) {
    expect_stores_byte_identical(serial,
                                 build_updown_routes(tb.topo(), sr, jobs),
                                 "updown jobs=" + std::to_string(jobs));
  }
}

TEST(RouteStoreParallelBuild, IrregularTopologyIdenticalAcrossJobCounts) {
  // CPLANT exercises the fallback for pairs whose minimal candidates are
  // all discarded; the express torus exercises long express links.
  for (const int variant : {0, 1}) {
    const Testbed tb(variant == 0 ? make_cplant()
                                  : make_torus_2d_express(8, 8, 2));
    expect_stores_byte_identical(
        build_itb_routes(tb.topo(), tb.updown(), {}, 1),
        build_itb_routes(tb.topo(), tb.updown(), {}, 8),
        variant == 0 ? "cplant jobs=8" : "express jobs=8");
  }
}

TEST(RouteStoreParallelBuild, DenseLowDiameterIdenticalAcrossJobCounts) {
  // Dense adjacency stresses the row builders differently than the paper's
  // sparse tori: many equal-length candidates per pair (alternative
  // selection order must not depend on thread schedule) and, for MIN, the
  // structured oracle shared across all workers.
  for (const NamedTestbed& t : testbeds()) {
    const Topology& topo = t.tb.topo();
    if (!has_structured_minimal(topo)) continue;
    const RouteSet itb_serial = build_itb_routes(topo, t.tb.updown(), {}, 1);
    const RouteSet min_serial = build_minimal_routes(topo, 1);
    for (const int jobs : {2, 8}) {
      const std::string at = " jobs=" + std::to_string(jobs);
      expect_stores_byte_identical(
          itb_serial, build_itb_routes(topo, t.tb.updown(), {}, jobs),
          t.name + " itb" + at);
      expect_stores_byte_identical(min_serial,
                                   build_minimal_routes(topo, jobs),
                                   t.name + " min" + at);
    }
  }
}

TEST(RouteStoreParallelBuild, WarmedTestbedServesTheSameTable) {
  // Testbed::warm(scheme, jobs) builds with the pool from the main thread;
  // the table it caches must be the one a cold serial build produces.
  const Testbed cold(make_torus_2d(8, 8, 2));
  const Testbed warm(make_torus_2d(8, 8, 2));
  warm.warm(RoutingScheme::kItbSp, 8);
  expect_stores_byte_identical(cold.routes(RoutingScheme::kItbSp),
                               warm.routes(RoutingScheme::kItbSp),
                               "warm vs cold");
}

TEST(RouteStoreFactorized, PoolsByteIdenticalAcrossJobCounts) {
  for (const NamedTestbed& t : dense_testbeds()) {
    const Topology& topo = t.tb.topo();
    const RouteSet itb_serial = build_itb_routes(topo, t.tb.updown(), {}, 1);
    for (const int jobs : {2, 8}) {
      expect_stores_byte_identical(
          itb_serial, build_itb_routes(topo, t.tb.updown(), {}, jobs),
          t.name + " itb jobs=" + std::to_string(jobs));
    }
    if (!has_structured_minimal(topo)) continue;
    const RouteSet min_serial = build_minimal_routes(topo, 1);
    for (const int jobs : {2, 8}) {
      expect_stores_byte_identical(min_serial,
                                   build_minimal_routes(topo, jobs),
                                   t.name + " min jobs=" + std::to_string(jobs));
    }
  }
}

// --- dedup ---------------------------------------------------------------

TEST(RouteStoreDedup, SharedSegmentsReconstructByteIdentical) {
  // Walk the raw arrays — not the view layer — pair_altlist -> altlists ->
  // alt_routes -> core_routes -> route_walks -> walks -> port_pool, and
  // check every leg's pool slice against the reference Routes.  This
  // catches offset bookkeeping bugs the view-level differential could mask
  // if compose() had a compensating bug.
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteTable want = reference_itb_table(tb.topo(), tb.updown());
  const RouteSet built = build_itb_routes(tb.topo(), tb.updown());

  // Dedup must actually fire on a regular topology: many pairs share
  // dimension-ordered sub-walks.
  EXPECT_GT(built.segments_shared(), 0u);
  EXPECT_LT(built.distinct_routes(), built.num_routes());

  const std::span<const PortId> ports = built.port_pool();
  const std::span<const SpanRec> walks = built.walks();
  const std::span<const std::uint32_t> route_walks = built.route_walks();
  const std::span<const SpanRec> core_routes = built.core_routes();
  const std::span<const std::uint32_t> alt_routes = built.alt_routes();
  const std::span<const SpanRec> altlists = built.altlists();
  const std::span<const std::uint32_t> pair_altlist = built.pair_altlist();

  const int n = built.num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::size_t key = pair_key(n, s, d);
      const SpanRec& al = altlists[pair_altlist[key]];
      const std::vector<Route>& alts = want[key];
      ASSERT_EQ(al.count, alts.size());
      for (std::size_t i = 0; i < alts.size(); ++i) {
        const SpanRec& rr = core_routes[alt_routes[al.first + i]];
        const Route& w = alts[i];
        ASSERT_EQ(rr.count, w.legs.size());
        // Alternatives keep DFS order, so the baked alternative tag is
        // the slot index.
        EXPECT_EQ(rr.tag, i);
        EXPECT_EQ(rr.tag, w.alt_tag);
        for (std::size_t li = 0; li < w.legs.size(); ++li) {
          const SpanRec& wk = walks[route_walks[rr.first + li]];
          const RouteLeg& wl = w.legs[li];
          // Interned walks hold switch output ports only; intermediate
          // legs of a Route carry one extra trailing eject port.
          const bool final_leg = li + 1 == w.legs.size();
          ASSERT_EQ(wk.count, wl.ports.size() - (final_leg ? 0 : 1));
          ASSERT_EQ(wk.count, static_cast<std::size_t>(wl.switch_hops));
          for (std::size_t p = 0; p < wk.count; ++p) {
            ASSERT_EQ(ports[wk.first + p], wl.ports[p])
                << s << "->" << d << " alt " << i << " leg " << li;
          }
        }
      }
    }
  }
}

TEST(RouteStoreDedup, DenseGraphSharesSegmentsAndRoundTrips) {
  // On a full mesh every route is one hop, so the walk pool should intern
  // aggressively; a round trip through owning Routes and factorize must
  // be loss-free and land at the same footprint.
  const Testbed tb(make_full_mesh(16, 2), kAutoRoot);
  const RouteSet& built = tb.routes(RoutingScheme::kItbSp);
  EXPECT_GT(built.segments_shared(), 0u);
  const RouteTable table = materialize_all(built);
  const RouteSet again =
      factorize(tb.topo(), RoutingAlgorithm::kItb, table);
  EXPECT_EQ(again.num_routes(), built.num_routes());
  EXPECT_EQ(again.segments_shared(), built.segments_shared());
  EXPECT_EQ(again.table_bytes(), built.table_bytes());
  EXPECT_TRUE(materialize_all(again) == table);
}

// --- golden --------------------------------------------------------------

/// FNV-1a 64 over the seven raw arrays, in accessor order, as one running
/// hash: any change to ids, record layout or pool contents moves it.
std::string raw_arrays_digest(const RouteSet& st) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](auto span) {
    const auto* p = reinterpret_cast<const unsigned char*>(span.data());
    for (std::size_t i = 0; i < span.size_bytes(); ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  fold(st.port_pool());
  fold(st.walks());
  fold(st.route_walks());
  fold(st.core_routes());
  fold(st.alt_routes());
  fold(st.altlists());
  fold(st.pair_altlist());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(RouteStoreGolden, RawArraysDigest) {
  // Pins the store bytes across refactors of the interning and merge.
  const Testbed torus(make_torus_2d(8, 8, 8));
  EXPECT_EQ(raw_arrays_digest(torus.routes(RoutingScheme::kUpDown)),
            "63d96334957f10ec");
  EXPECT_EQ(raw_arrays_digest(torus.routes(RoutingScheme::kItbSp)),
            "8efcfe3642681641");
  const Testbed cplant(make_cplant());
  EXPECT_EQ(raw_arrays_digest(cplant.routes(RoutingScheme::kItbSp)),
            "6fbf17005226e4d5");
  const Testbed hyperx(make_hyperx({16, 16}, 8), kAutoRoot);
  EXPECT_EQ(raw_arrays_digest(hyperx.routes(RoutingScheme::kMinimal)),
            "f9b00ffb5b18606a");
  const Testbed dragonfly(make_dragonfly(8, 8, 4), kAutoRoot);
  EXPECT_EQ(raw_arrays_digest(dragonfly.routes(RoutingScheme::kItbSp)),
            "2c19be2686199c20");
}

/// FNV-1a 64 over every composed view, (s, d) in order and every
/// alternative: hop totals, leg counts, every leg's ports (the synthesized
/// eject port included), in-transit host and hop count, then the
/// materialized switch walk and alt tag.  The raw arrays cannot see the
/// in-transit hosts, which are composed at lookup.
std::string composed_views_digest(const RouteSet& rs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, u >>= 8) {
      h ^= u & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  const int n = rs.num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const AltsView alts = rs.alternatives(s, d);
      for (std::size_t a = 0; a < alts.size(); ++a) {
        const RouteView v = alts[a];
        fold(v.total_switch_hops);
        fold(static_cast<std::int64_t>(v.legs.size()));
        for (const LegView leg : v.legs) {
          fold(static_cast<std::int64_t>(leg.ports.size()));
          for (const PortId p : leg.ports) fold(p);
          fold(leg.end_host);
          fold(leg.switch_hops);
        }
        const Route r = rs.materialize(s, d, static_cast<int>(a));
        fold(static_cast<std::int64_t>(r.switches.size()));
        for (const SwitchId sw : r.switches) fold(sw);
        fold(r.alt_tag);
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(RouteStoreGolden, ComposedViewsDigest) {
  // Pins every composed route — including the in-transit hosts that the
  // lookup derives from the host mix — on the tables of RawArraysDigest.
  const Testbed torus(make_torus_2d(8, 8, 8));
  EXPECT_EQ(composed_views_digest(torus.routes(RoutingScheme::kUpDown)),
            "655c02b5f89fc0f7");
  EXPECT_EQ(composed_views_digest(torus.routes(RoutingScheme::kItbSp)),
            "7edf47008ee6288b");
  const Testbed cplant(make_cplant());
  EXPECT_EQ(composed_views_digest(cplant.routes(RoutingScheme::kItbSp)),
            "8b0863f8152cfeac");
  const Testbed hyperx(make_hyperx({16, 16}, 8), kAutoRoot);
  EXPECT_EQ(composed_views_digest(hyperx.routes(RoutingScheme::kMinimal)),
            "898c10bb8ad7a0a5");
  const Testbed dragonfly(make_dragonfly(8, 8, 4), kAutoRoot);
  EXPECT_EQ(composed_views_digest(dragonfly.routes(RoutingScheme::kItbSp)),
            "f8696ec810a65e6e");
}

TEST(RouteStoreGolden, InternerKeysOnTagAndRejectsOverlongSequences) {
  SpanPool<std::uint32_t> pool;
  SpanInterner tab;
  const std::vector<std::uint32_t> seq{1, 2, 3};
  const std::span<const std::uint32_t> s(seq);
  EXPECT_EQ(tab.intern(pool, s), 0u);
  EXPECT_EQ(tab.intern(pool, s, 7), 1u);  // same items, other tag
  EXPECT_EQ(tab.intern(pool, s), 0u);
  EXPECT_EQ(pool.items.size(), 6u);
  const std::vector<std::uint32_t> longest(65535, 4);
  EXPECT_EQ(pool[tab.intern(pool, std::span<const std::uint32_t>(longest))]
                .size(),
            65535u);
  // A SpanRec counts items in 16 bits; a longer leg walk would otherwise
  // be truncated in the store and in every composed view.
  FactorizedBlock block;
  FactorizedBlockStager stager;
  stager.begin_block(&block);
  const std::vector<PortId> walk(65536, 1);
  EXPECT_THROW((void)stager.stage_walk(walk.data(), walk.size()),
               std::length_error);
}

// --- scale ---------------------------------------------------------------

TEST(RouteStoreFactorized, ScalePointPassesRouteVerifier) {
  // verify_route_set retraces every composed leg against the topology —
  // ports must name real cables, in-transit hosts must be attached to the
  // split switch, legs must be up*/down* legal and minimal.  Running it on
  // a bench-ladder scale point checks the factorized composition where
  // segment sharing is heaviest.  The full dragonfly16 point (2064
  // switches, 8.8M route instances) rides on the ITB_CHECKED build; the
  // fast suite uses the dragonfly8 point.
#ifdef ITB_CHECKED
  const Testbed tb(make_dragonfly(16, 8, 8), kAutoRoot);
#else
  const Testbed tb(make_dragonfly(8, 8, 4), kAutoRoot);
#endif
  const RouteSet rs = build_itb_routes(tb.topo(), tb.updown(), {}, 8);
  const RouteVerifyReport rep = verify_route_set(tb.topo(), tb.updown(), rs);
  EXPECT_TRUE(rep.ok()) << rep.violations.size() << " violations; first: "
                        << (rep.violations.empty()
                                ? std::string()
                                : rep.violations.front().detail);
  // The verifier covers every ordered pair except the trivial diagonal.
  const auto n = static_cast<std::uint64_t>(tb.topo().num_switches());
  EXPECT_EQ(rep.pairs_checked, n * (n - 1));
}

}  // namespace
}  // namespace itb
