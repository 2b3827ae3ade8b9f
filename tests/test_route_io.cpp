// Route-table export and the simple_routes balancing objectives.
#include <gtest/gtest.h>

#include <sstream>

#include "core/route_builder.hpp"
#include "core/route_io.hpp"
#include "route/simple_routes.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

TEST(RouteIo, FormatRouteShowsLegsAndItbs) {
  // The 5-switch ITB fixture: pair (3, 2) has one in-transit host.
  Topology t(5, 8, "fx");
  t.connect_auto(0, 1);
  t.connect_auto(0, 2);
  t.connect_auto(1, 3);
  t.connect_auto(2, 4);
  t.connect_auto(3, 4);
  for (SwitchId s = 0; s < 5; ++s) t.attach_hosts(s, 2);
  UpDown ud(t, 0);
  RouteSet rs = build_itb_routes(t, ud);
  const std::string line = format_route(rs.materialize(3, 2, 0));
  EXPECT_NE(line.find("s3->s2"), std::string::npos);
  EXPECT_NE(line.find("itbs=1"), std::string::npos);
  EXPECT_NE(line.find("@h"), std::string::npos);
  EXPECT_NE(line.find("via 3-4-2"), std::string::npos);
  EXPECT_NE(line.find(" | "), std::string::npos) << "two legs -> separator";
}

TEST(RouteIo, DumpFiltersByItbCount) {
  Topology t = make_torus_2d(4, 4, 1);
  UpDown ud(t, 0);
  RouteSet rs = build_itb_routes(t, ud);
  std::ostringstream all, only_itb;
  dump_routes(all, rs, 0);
  dump_routes(only_itb, rs, 1);
  EXPECT_GT(all.str().size(), only_itb.str().size());
  // Every line of the filtered dump names at least one in-transit host.
  std::istringstream is(only_itb.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    // Filtering is on alternative 0; alternatives of a kept pair may
    // themselves be legal (no '@h'), but the header alt0 line must have it.
    if (line.rfind("alt0 ", 0) == 0) {
      EXPECT_NE(line.find("@h"), std::string::npos) << line;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0);
}

TEST(RouteIo, SummaryCountsRoutes) {
  Topology t = make_torus_2d(4, 4, 1);
  UpDown ud(t, 0);
  RouteSet rs = build_itb_routes(t, ud);
  const std::string s = summarize_route_set(rs);
  EXPECT_NE(s.find("240 pairs"), std::string::npos);  // 16*15
  EXPECT_NE(s.find("itbs 0/1/2/3+"), std::string::npos);
}

TEST(SimpleRoutesObjective, BothObjectivesProduceLegalTables) {
  Topology t = make_torus_2d(4, 4, 1);
  UpDown ud(t, 0);
  for (const BalanceObjective obj :
       {BalanceObjective::kMinMax, BalanceObjective::kMinSum}) {
    SimpleRoutesOptions o;
    o.objective = obj;
    SimpleRoutes sr(t, ud, o);
    for (SwitchId s = 0; s < 16; ++s) {
      for (SwitchId d = 0; d < 16; ++d) {
        EXPECT_TRUE(ud.legal(sr.route(s, d)));
      }
    }
  }
}

TEST(SimpleRoutesObjective, MinMaxHasNoHotterPeakThanMinSum) {
  Topology t = make_torus_2d(8, 8, 1);
  UpDown ud(t, 0);
  auto max_weight = [&](BalanceObjective obj) {
    SimpleRoutesOptions o;
    o.objective = obj;
    SimpleRoutes sr(t, ud, o);
    int best = 0;
    for (const int w : sr.channel_weights()) best = std::max(best, w);
    return best;
  };
  EXPECT_LE(max_weight(BalanceObjective::kMinMax),
            max_weight(BalanceObjective::kMinSum));
}

}  // namespace
}  // namespace itb
