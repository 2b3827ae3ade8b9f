// Property suite for the low-diameter generators (HyperX, Dragonfly, full
// mesh): element counts against the closed forms, degree regularity,
// BFS-measured diameter equal to the analytical bound, bidirectional cable
// pairing, host bijectivity, shape metadata round-trips through topo/io,
// and the StructuredMinimal oracle's all-pairs minimality.  Negative cases
// mutate the shape promise out from under the oracle and expect a throw
// rather than wrong routes.
//
// Golden fixtures pin one simulated cell per family (same canonical-JSON
// machinery as test_engine_golden):
//
//   ITB_UPDATE_GOLDEN=1 ctest -R LowDiameterGolden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hpp"
#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "route/topo_minimal.hpp"
#include "route/switch_path.hpp"
#include "topo/generators.hpp"
#include "topo/io.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

// --------------------------------------------------------------- helpers

int bfs_diameter(const Topology& topo) {
  const int n = topo.num_switches();
  const std::vector<int> dist = topo.all_switch_distances();
  int diameter = 0;
  for (const int d : dist) {
    EXPECT_GE(d, 0) << "switch graph must be connected";
    diameter = std::max(diameter, d);
  }
  EXPECT_EQ(dist.size(), static_cast<std::size_t>(n) * n);
  return diameter;
}

int switch_switch_cables(const Topology& topo) {
  int count = 0;
  for (CableId c = 0; c < topo.num_cables(); ++c) {
    if (!topo.cable(c).to_host()) ++count;
  }
  return count;
}

void expect_cables_paired(const Topology& topo) {
  // Both endpoints of every cable point back at it through the port table,
  // i.e. adjacency is symmetric at the port level, not just the graph level.
  for (CableId c = 0; c < topo.num_cables(); ++c) {
    const Cable& cb = topo.cable(c);
    const PortPeer& pa = topo.peer(cb.a.sw, cb.a.port);
    EXPECT_EQ(pa.cable, c);
    if (cb.to_host()) {
      EXPECT_EQ(pa.kind, PeerKind::kHost);
      EXPECT_EQ(pa.host, cb.host);
      EXPECT_EQ(topo.host(cb.host).cable, c);
    } else {
      EXPECT_EQ(pa.kind, PeerKind::kSwitch);
      EXPECT_EQ(pa.sw, cb.b.sw);
      EXPECT_EQ(pa.port, cb.b.port);
      const PortPeer& pb = topo.peer(cb.b.sw, cb.b.port);
      EXPECT_EQ(pb.kind, PeerKind::kSwitch);
      EXPECT_EQ(pb.cable, c);
      EXPECT_EQ(pb.sw, cb.a.sw);
      EXPECT_EQ(pb.port, cb.a.port);
      EXPECT_NE(cb.a.sw, cb.b.sw) << "no self loops";
    }
  }
}

void expect_hosts_bijective(const Topology& topo, int hosts_per_switch) {
  // Dense host ids, each attached to exactly one switch port, exactly
  // hosts_per_switch per switch, and id order follows switch order (the
  // traffic patterns and the host<->switch mapping rely on this).
  ASSERT_EQ(topo.num_hosts(), topo.num_switches() * hosts_per_switch);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    const std::vector<HostId> hs = topo.hosts_of_switch(s);
    ASSERT_EQ(hs.size(), static_cast<std::size_t>(hosts_per_switch)) << s;
    for (const HostId h : hs) {
      EXPECT_EQ(topo.host(h).sw, s);
      EXPECT_EQ(h / hosts_per_switch, s)
          << "host ids must be dense in switch order";
    }
  }
}

void expect_regular_degree(const Topology& topo, int degree) {
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    EXPECT_EQ(topo.switch_degree(s), degree) << "switch " << s;
  }
}

void expect_structurally_valid(const Topology& topo) {
  const std::vector<std::string> problems = topo.validate();
  EXPECT_TRUE(problems.empty())
      << problems.size() << " problems; first: " << problems.front();
  EXPECT_TRUE(topo.connected());
  expect_cables_paired(topo);
}

// ---------------------------------------------------------------- HyperX

TEST(HyperXGenerator, CountsDegreesDiameterMatchClosedForms) {
  const Topology t = make_hyperx({4, 4}, 2);
  EXPECT_EQ(t.num_switches(), 16);
  EXPECT_EQ(t.num_hosts(), 32);
  // Per-dimension cliques: N * sum(S_k - 1) / 2 switch cables.
  EXPECT_EQ(switch_switch_cables(t), 16 * (3 + 3) / 2);
  EXPECT_EQ(t.num_cables(), 48 + 32);
  expect_regular_degree(t, 6);
  EXPECT_EQ(bfs_diameter(t), 2);
  expect_hosts_bijective(t, 2);
  expect_structurally_valid(t);
  EXPECT_EQ(t.shape().kind, TopoKind::kHyperX);
  EXPECT_EQ(t.shape().params, (std::vector<int>{2, 4, 4, 2}));
}

TEST(HyperXGenerator, MixedRadixAndDegenerateExtents) {
  const Topology t = make_hyperx({2, 3, 4}, 1);
  EXPECT_EQ(t.num_switches(), 24);
  expect_regular_degree(t, 1 + 2 + 3);
  EXPECT_EQ(switch_switch_cables(t), 24 * 6 / 2);
  EXPECT_EQ(bfs_diameter(t), 3);
  expect_structurally_valid(t);

  // Extent-1 dimensions contribute no hops: diameter counts only S_k > 1.
  const Topology flat = make_hyperx({1, 5}, 1);
  EXPECT_EQ(flat.num_switches(), 5);
  expect_regular_degree(flat, 4);
  EXPECT_EQ(bfs_diameter(flat), 1);
}

TEST(HyperXGenerator, ValidationNamesTheOffendingValue) {
  EXPECT_THROW(make_hyperx({}, 2), std::invalid_argument);
  try {
    make_hyperx({4, 0}, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("S[1]"), std::string::npos)
        << e.what();
  }
  try {
    make_hyperx({4, 4}, -1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos) << e.what();
  }
  // Port budget named in the message: degree 6 + 2 hosts needs 8 ports.
  try {
    make_hyperx({4, 4}, 2, 7);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------------- Dragonfly

int dragonfly_group_of(SwitchId s, int a) { return s / a; }

void expect_one_global_cable_per_group_pair(const Topology& t, int a,
                                            int groups) {
  std::vector<int> pair_count(static_cast<std::size_t>(groups) * groups, 0);
  for (CableId c = 0; c < t.num_cables(); ++c) {
    const Cable& cb = t.cable(c);
    if (cb.to_host()) continue;
    const int g1 = dragonfly_group_of(cb.a.sw, a);
    const int g2 = dragonfly_group_of(cb.b.sw, a);
    if (g1 == g2) continue;
    ++pair_count[static_cast<std::size_t>(std::min(g1, g2)) * groups +
                 std::max(g1, g2)];
  }
  for (int g1 = 0; g1 < groups; ++g1) {
    for (int g2 = g1 + 1; g2 < groups; ++g2) {
      EXPECT_EQ(pair_count[static_cast<std::size_t>(g1) * groups + g2], 1)
          << "groups " << g1 << "," << g2;
    }
  }
}

TEST(DragonflyGenerator, CountsDegreesDiameterMatchClosedForms) {
  for (const DragonflyArrangement arr :
       {DragonflyArrangement::kPalmtree, DragonflyArrangement::kAbsolute}) {
    SCOPED_TRACE(arr == DragonflyArrangement::kPalmtree ? "palmtree"
                                                        : "absolute");
    const int a = 4, p = 2, h = 2;
    const int groups = a * h + 1;  // 9
    const Topology t = make_dragonfly(a, p, h, arr);
    EXPECT_EQ(t.num_switches(), groups * a);
    EXPECT_EQ(t.num_hosts(), groups * a * p);
    expect_regular_degree(t, (a - 1) + h);
    // Intra-group cliques + one global cable per group pair.
    EXPECT_EQ(switch_switch_cables(t),
              groups * a * (a - 1) / 2 + groups * (groups - 1) / 2);
    EXPECT_EQ(bfs_diameter(t), 3);
    expect_hosts_bijective(t, p);
    expect_structurally_valid(t);
    expect_one_global_cable_per_group_pair(t, a, groups);
    EXPECT_EQ(t.shape().kind, TopoKind::kDragonfly);
    EXPECT_EQ(t.shape().params,
              (std::vector<int>{a, p, h, static_cast<int>(arr)}));
  }
}

TEST(DragonflyGenerator, SmallestCanonicalInstance) {
  // a=2, h=1: 3 groups of 2, a 6-switch ring-ish graph with diameter 3.
  const Topology t = make_dragonfly(2, 1, 1);
  EXPECT_EQ(t.num_switches(), 6);
  expect_regular_degree(t, 2);
  EXPECT_EQ(bfs_diameter(t), 3);
  expect_structurally_valid(t);
}

TEST(DragonflyGenerator, ValidationNamesTheOffendingValue) {
  try {
    make_dragonfly(1, 2, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos) << e.what();
  }
  EXPECT_THROW(make_dragonfly(4, -1, 2), std::invalid_argument);
  EXPECT_THROW(make_dragonfly(4, 2, 0), std::invalid_argument);
  EXPECT_THROW(make_dragonfly(64, 1, 16), std::invalid_argument)
      << "switch cap";
}

// ------------------------------------------------------------- full mesh

TEST(FullMeshGenerator, CountsDegreesDiameterMatchClosedForms) {
  const Topology t = make_full_mesh(16, 2);
  EXPECT_EQ(t.num_switches(), 16);
  EXPECT_EQ(t.num_hosts(), 32);
  EXPECT_EQ(switch_switch_cables(t), 16 * 15 / 2);
  expect_regular_degree(t, 15);
  EXPECT_EQ(bfs_diameter(t), 1);
  expect_hosts_bijective(t, 2);
  expect_structurally_valid(t);
  EXPECT_EQ(t.shape().kind, TopoKind::kFullMesh);
  EXPECT_EQ(t.shape().params, (std::vector<int>{16, 2}));
}

TEST(FullMeshGenerator, ValidationNamesTheOffendingValue) {
  try {
    make_full_mesh(1, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos) << e.what();
  }
  try {
    make_full_mesh(2000, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2000"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_full_mesh(4, -1), std::invalid_argument);
  EXPECT_THROW(make_full_mesh(16, 2, 16), std::invalid_argument)
      << "15 switch ports + 2 hosts cannot fit in 16";
}

// -------------------------------------------------- shape metadata + io

TEST(TopoShape, RoundTripsThroughMapFiles) {
  const Topology tds[] = {make_hyperx({4, 4}, 2), make_dragonfly(4, 2, 2),
                          make_dragonfly(4, 2, 2,
                                         DragonflyArrangement::kAbsolute),
                          make_full_mesh(16, 2)};
  for (const Topology& t : tds) {
    SCOPED_TRACE(t.name());
    const Topology back = parse_topology_string(serialize_topology(t));
    EXPECT_EQ(back.shape(), t.shape());
    EXPECT_EQ(back.num_switches(), t.num_switches());
    EXPECT_EQ(back.num_cables(), t.num_cables());
    // The re-parsed topology still drives the structured oracle.
    EXPECT_TRUE(has_structured_minimal(back));
  }
  // Generic topologies keep emitting shape-free files.
  const Topology torus = make_torus_2d(4, 4, 2);
  EXPECT_EQ(torus.shape().kind, TopoKind::kGeneric);
  EXPECT_EQ(serialize_topology(torus).find("shape"), std::string::npos);
  EXPECT_THROW(parse_topology_string("topology x\nswitches 2 4\n"
                                     "shape warpdrive 1\n"),
               TopologyParseError);
}

// ------------------------------------------- structured minimal routing

void expect_minimal_all_pairs(const Topology& topo) {
  // Dragonfly's canonical l-g-l path (≤3 hops via the unique direct
  // group-pair cable) is what the oracle promises — it can exceed the BFS
  // distance when a two-global detour through a third group happens to be
  // shorter, so for that family the bound is the l-g-l ceiling, not
  // equality with BFS.
  const bool lgl = topo.shape().kind == TopoKind::kDragonfly;
  const StructuredMinimal sm(topo);
  const int n = topo.num_switches();
  const std::vector<int> dist = topo.all_switch_distances();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const SwitchPath p = sm.path(s, d);
      ASSERT_TRUE(path_is_consistent(topo, p))
          << s << "->" << d << " inconsistent";
      ASSERT_EQ(p.src(), s);
      ASSERT_EQ(p.dst(), d);
      const int bfs = dist[static_cast<std::size_t>(s) * n + d];
      if (lgl) {
        ASSERT_GE(p.hops(), bfs) << s << "->" << d << " shorter than BFS?";
        ASSERT_LE(p.hops(), 3) << s << "->" << d << " exceeds l-g-l ceiling";
      } else {
        ASSERT_EQ(p.hops(), bfs) << s << "->" << d << " not minimal";
      }
    }
  }
}

TEST(StructuredMinimalOracle, AllPairsMinimalOnEveryFamily) {
  expect_minimal_all_pairs(make_hyperx({4, 4}, 2));
  expect_minimal_all_pairs(make_hyperx({2, 3, 4}, 1));
  expect_minimal_all_pairs(make_dragonfly(4, 2, 2));
  expect_minimal_all_pairs(
      make_dragonfly(4, 2, 2, DragonflyArrangement::kAbsolute));
  expect_minimal_all_pairs(make_full_mesh(16, 2));
}

TEST(StructuredMinimalOracle, RejectsGenericTopologies) {
  const Topology torus = make_torus_2d(4, 4, 2);
  EXPECT_FALSE(has_structured_minimal(torus));
  EXPECT_THROW(StructuredMinimal sm(torus), std::invalid_argument);
}

TEST(StructuredMinimalOracle, RejectsMutatedShapePromises) {
  // A shape whose parameters contradict the switch count must throw at
  // construction, not route wrongly.
  Topology hx = make_hyperx({4, 4}, 2);
  hx.set_shape({TopoKind::kHyperX, {2, 3, 5, 2}});  // 15 != 16 switches
  EXPECT_THROW(StructuredMinimal sm(hx), std::invalid_argument);

  // A dragonfly claim over a full mesh has duplicate group-pair cables.
  Topology fm = make_full_mesh(6, 1);
  fm.set_shape({TopoKind::kDragonfly, {2, 1, 1, 0}});
  EXPECT_THROW(StructuredMinimal sm(fm), std::invalid_argument);

  // A full-mesh claim over a sparser graph survives construction (the
  // params do match the counts) but must throw on the first absent hop.
  Topology df = make_dragonfly(2, 1, 1);
  df.set_shape({TopoKind::kFullMesh, {6, 1}});
  const StructuredMinimal sm(df);
  bool threw = false;
  for (SwitchId s = 0; s < 6 && !threw; ++s) {
    for (SwitchId d = 0; d < 6 && !threw; ++d) {
      try {
        (void)sm.path(s, d);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
    }
  }
  EXPECT_TRUE(threw) << "diameter-3 graph cannot be a clique";
}

TEST(StructuredMinimalOracle, MinTablesBuildAndVerifyThroughTestbed) {
  for (const char* which : {"hyperx", "dragonfly", "fullmesh"}) {
    SCOPED_TRACE(which);
    Topology t = std::string(which) == "hyperx"    ? make_hyperx({4, 4}, 2)
                 : std::string(which) == "dragonfly" ? make_dragonfly(4, 2, 2)
                                                     : make_full_mesh(16, 2);
    const bool lgl = std::string(which) == "dragonfly";
    const Testbed tb(std::move(t), kAutoRoot);
    const RouteSet& min = tb.routes(RoutingScheme::kMinimal);
    EXPECT_EQ(min.algorithm(), RoutingAlgorithm::kMinimal);
    const int n = tb.topo().num_switches();
    const std::vector<int> dist = tb.topo().all_switch_distances();
    for (SwitchId s = 0; s < n; ++s) {
      for (SwitchId d = 0; d < n; ++d) {
        if (s == d) continue;
        const AltsView alts = min.alternatives(s, d);
        ASSERT_EQ(alts.size(), 1u);
        const int bfs = dist[static_cast<std::size_t>(s) * n + d];
        if (lgl) {
          // Canonical l-g-l may exceed the BFS distance (two-global
          // shortcuts) but never the diameter-3 ceiling.
          EXPECT_GE(alts[0].total_switch_hops, bfs);
          EXPECT_LE(alts[0].total_switch_hops, 3);
        } else {
          EXPECT_EQ(alts[0].total_switch_hops, bfs);
        }
        EXPECT_EQ(alts[0].num_itbs(), 0);
      }
    }
  }
  // MIN on a generic topology has no structure to key off: warm must throw.
  const Testbed torus(make_torus_2d(4, 4, 2));
  EXPECT_THROW((void)torus.routes(RoutingScheme::kMinimal),
               std::invalid_argument);
}

// ------------------------------------------------------ golden fixtures
// One simulated cell per family, pinned as canonical JSON exactly like the
// engine goldens: POD engine, checked off, fixed seed.  MIN drives the
// full mesh (its deadlock-free baseline), the ITB schemes drive HyperX and
// Dragonfly — MIN-dragonfly legitimately deadlocks, which is the paper's
// point, not a fixture.

RunResult run_lowdiam_cell(const Testbed& tb, RoutingScheme scheme) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.payload_bytes = 512;
  cfg.warmup = us(50);
  cfg.measure = us(150);
  cfg.seed = 42;
  cfg.checked = false;
  const UniformPattern pat(tb.topo().num_hosts());
  return run_point(tb, scheme, pat, cfg);
}

void compare_or_update_golden(const char* name, const RunResult& r) {
  const std::string path = std::string(ITB_GOLDEN_DIR) + "/" + name;
  const std::string got = run_result_to_canonical_json(r) + "\n";
  if (std::getenv("ITB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path
                         << " missing; regenerate with ITB_UPDATE_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "simulated results changed; if intended, regenerate " << name
      << " with ITB_UPDATE_GOLDEN=1 and review the diff";
}

TEST(LowDiameterGolden, HyperX4x4ItbRrCell) {
  const Testbed tb(make_hyperx({4, 4}, 2), kAutoRoot);
  const RunResult r = run_lowdiam_cell(tb, RoutingScheme::kItbRr);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("lowdiam_hyperx44_itbrr.json", r);
}

TEST(LowDiameterGolden, DragonflyA4P2H2ItbSpCell) {
  const Testbed tb(make_dragonfly(4, 2, 2), kAutoRoot);
  const RunResult r = run_lowdiam_cell(tb, RoutingScheme::kItbSp);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("lowdiam_dragonfly422_itbsp.json", r);
}

TEST(LowDiameterGolden, FullMesh16MinCell) {
  const Testbed tb(make_full_mesh(16, 2), kAutoRoot);
  const RunResult r = run_lowdiam_cell(tb, RoutingScheme::kMinimal);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("lowdiam_fullmesh16_min.json", r);
}

}  // namespace
}  // namespace itb
