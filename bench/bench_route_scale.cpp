// Route-table scale grid: build time at --jobs N, table footprint and lookup
// (compose) cost of the switch-pair factorized store across the topology
// ladder — the 512-host paper torus up to the 2064-switch / 16512-host
// Dragonfly — for every table the scheme set uses (UP/DOWN, MIN, and the
// shared ITB table of ITB-SP/RR).  rss_mb is the process's VmRSS right
// after a rung's builds, with the table still live; it should track the
// tables, not ratchet up the ladder.  peak_mb is the process's VmHWM after
// the cell, so it also shows a build's transient working set.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <optional>

#include "core/route_builder.hpp"
#include "route/topo_minimal.hpp"
#include "sim/memory_policy.hpp"

using namespace itb;
using namespace itb::bench;

namespace {

struct Cell {
  std::string testbed;
  int switches = 0;
  int hosts = 0;
  RoutingScheme scheme = RoutingScheme::kUpDown;
  double build_ms = 0.0;
  std::uint64_t table_bytes = 0;
  std::uint64_t core_bytes = 0;
  std::uint64_t route_instances = 0;
  std::uint64_t distinct_walks = 0;
  std::uint64_t distinct_routes = 0;
  double compose_ns_avg = 0.0;
  std::optional<double> rss_mb;   // nullopt off Linux
  std::optional<double> peak_mb;  // likewise
};

/// Average wall time of one pair lookup + view composition, over a
/// deterministic LCG sample of pairs.  The checksum keeps the compose from
/// being optimized away.
double compose_ns_avg(const RouteSet& rs, int num_switches) {
  const int kSamples = 65536;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSamples; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto s = static_cast<SwitchId>((lcg >> 33) %
                                         static_cast<std::uint64_t>(num_switches));
    const auto d = static_cast<SwitchId>((lcg >> 13) %
                                         static_cast<std::uint64_t>(num_switches));
    const AltsView alts = rs.alternatives(s, d);
    const RouteView v = alts[(lcg >> 3) % alts.size()];
    sink += static_cast<std::uint64_t>(v.total_switch_hops) +
            v.legs.back().ports.size();
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  if (sink == 0) std::printf("(unreachable checksum)\n");
  return dt.count() / kSamples;
}

Cell measure(const std::string& name, const Testbed& tb, RoutingScheme scheme,
             int reps, int jobs) {
  Cell c;
  c.testbed = name;
  c.switches = tb.topo().num_switches();
  c.hosts = tb.topo().num_hosts();
  c.scheme = scheme;

  auto build = [&]() -> RouteSet {
    if (scheme == RoutingScheme::kUpDown) {
      const SimpleRoutes sr(tb.topo(), tb.updown(), {}, jobs);
      return build_updown_routes(tb.topo(), sr, jobs);
    }
    if (scheme == RoutingScheme::kMinimal) {
      return build_minimal_routes(tb.topo(), jobs);
    }
    return build_itb_routes(tb.topo(), tb.updown(), {}, jobs);
  };

  RouteSet rs = build();
  c.build_ms = rs.build_ms();
  for (int i = 1; i < reps; ++i) {
    const RouteSet again = build();
    if (again.build_ms() < c.build_ms) c.build_ms = again.build_ms();
  }
  c.rss_mb = resident_mb();
  c.table_bytes = rs.table_bytes();
  c.core_bytes = rs.core_bytes();
  c.route_instances = rs.num_routes();
  c.distinct_walks = rs.distinct_walks();
  c.distinct_routes = rs.distinct_routes();
  c.compose_ns_avg = compose_ns_avg(rs, c.switches);
  c.peak_mb = peak_resident_mb();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_args(argc, argv);
  const std::string what =
      "factorized store: build / footprint / compose across the topology "
      "ladder, tables built with --jobs " + std::to_string(opts.jobs);
  print_header("Route-table scale", what.c_str());

  // SimpleRoutes (the paper's own algorithm) is quadratic in switches;
  // UP/DOWN tables ride only on the small cells, the same rule as
  // bench_lowdiameter.  At hyperx 32x32 it costs ~0.5 s serial on a 4-core
  // x86 VM (EXPERIMENTS.md); the gate only keeps the ladder quick.
  const std::vector<std::string> beds =
      opts.fast
          ? std::vector<std::string>{"torus", "hyperx16x16", "dragonfly8"}
          : std::vector<std::string>{"torus", "hyperx16x16", "dragonfly8",
                                     "hyperx32x32", "dragonfly16"};

  std::vector<Cell> cells;
  for (const std::string& name : beds) {
    const Testbed tb = make_testbed(name);
    const int n = tb.topo().num_switches();
    const int reps = n <= 512 ? 3 : 1;

    std::vector<RoutingScheme> schemes;
    if (n <= 256) schemes.push_back(RoutingScheme::kUpDown);
    if (has_structured_minimal(tb.topo())) {
      schemes.push_back(RoutingScheme::kMinimal);
    }
    schemes.push_back(RoutingScheme::kItbRr);  // table shared with ITB-SP
    for (const RoutingScheme s : schemes) {
      cells.push_back(measure(name, tb, s, reps, opts.jobs));
    }
  }

  TextTable table({"testbed", "sw", "hosts", "table", "build(ms)", "bytes",
                   "core", "walks", "routes", "inst", "compose(ns)",
                   "rss_mb", "peak_mb"});
  for (const Cell& c : cells) {
    char ms[32], comp[32], rss[32] = "-", peak[32] = "-";
    std::snprintf(ms, sizeof ms, "%.1f", c.build_ms);
    std::snprintf(comp, sizeof comp, "%.1f", c.compose_ns_avg);
    if (c.rss_mb) std::snprintf(rss, sizeof rss, "%.1f", *c.rss_mb);
    if (c.peak_mb) std::snprintf(peak, sizeof peak, "%.1f", *c.peak_mb);
    table.add_row({c.testbed, std::to_string(c.switches),
                   std::to_string(c.hosts), to_string(c.scheme), ms,
                   std::to_string(c.table_bytes),
                   std::to_string(c.core_bytes),
                   std::to_string(c.distinct_walks),
                   std::to_string(c.distinct_routes),
                   std::to_string(c.route_instances), comp, rss, peak});
  }
  table.print(std::cout);

  return 0;
}
