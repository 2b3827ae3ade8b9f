// Low-diameter frontier: HyperX, Dragonfly and full-mesh cells comparing
// structured minimal source routes (MIN) against up*/down* and the ITB
// schemes, at the scale where the up*/down* tree visibly collapses.
//
// Two sections:
//   1. A (testbed x scheme x load) grid over the small/medium cells,
//      recording accepted traffic and latency per point plus the route
//      table footprint (compressed table_bytes, build_ms) per table.
//      UP/DOWN rides only on cells up to 256 switches, which keeps the
//      grid small.  SimpleRoutes (the paper's algorithm) is quadratic in
//      switches; it takes ~0.5 s serial for hyperx 32x32 on a 4-core x86
//      VM (see EXPERIMENTS.md).
//   2. A scale/acceptance section: >= 1024-switch cells (hyperx 32x32;
//      plus dragonfly a=16 p=8 h=8 in --full) run checked (route verifier
//      + deadlock watchdog) with ITB-RR and must record zero invariant
//      violations.
//
// Exit status is the acceptance gate: non-zero if any checked run records
// a violation.
#include "bench_common.hpp"

using namespace itb;
using namespace itb::bench;

namespace {

struct GridSpec {
  std::string testbed;
  RoutingScheme scheme;
  double load;
};

struct TableStat {
  std::string testbed;
  RoutingScheme scheme;
  int switches;
  int hosts;
  std::uint64_t table_bytes;
  double build_ms;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_args(argc, argv);
  print_header("Low-diameter frontier",
               "HyperX / Dragonfly / full-mesh: MIN vs UP/DOWN vs ITB");

  // ---------------------------------------------------------------- grid
  const std::vector<std::string> grid_beds =
      opts.fast ? std::vector<std::string>{"hyperx8x8", "dragonfly4",
                                           "fullmesh16"}
                : std::vector<std::string>{"hyperx8x8", "hyperx16x16",
                                           "dragonfly4", "dragonfly8",
                                           "fullmesh16", "fullmesh64"};
  const std::vector<double> loads = opts.fast
                                        ? std::vector<double>{0.005, 0.02}
                                        : std::vector<double>{0.005, 0.015,
                                                              0.03};

  std::vector<Testbed> beds;
  beds.reserve(grid_beds.size());
  std::vector<std::vector<RoutingScheme>> bed_schemes;
  std::vector<TableStat> tables;
  for (const std::string& name : grid_beds) {
    beds.push_back(make_testbed(name));
    const Testbed& tb = beds.back();
    std::vector<RoutingScheme> schemes = {RoutingScheme::kMinimal};
    // The paper's up*/down* candidate search is quadratic in switches;
    // keep it to the small cells so the grid stays quick (hyperx 32x32
    // would add ~0.5 s of SimpleRoutes per table; see EXPERIMENTS.md).
    if (tb.topo().num_switches() <= 256) {
      schemes.push_back(RoutingScheme::kUpDown);
    }
    schemes.push_back(RoutingScheme::kItbSp);
    schemes.push_back(RoutingScheme::kItbRr);
    for (const RoutingScheme s : schemes) tb.warm(s, opts.jobs);
    for (const RoutingScheme s : schemes) {
      // ITB-SP and ITB-RR share one table; record it once.
      if (s == RoutingScheme::kItbRr) continue;
      const RouteSet& r = tb.routes(s);
      tables.push_back({name, s, tb.topo().num_switches(),
                        tb.topo().num_hosts(), r.table_bytes(),
                        r.build_ms()});
    }
    bed_schemes.push_back(std::move(schemes));
  }

  std::vector<GridSpec> cells;
  std::vector<const Testbed*> cell_bed;
  for (std::size_t b = 0; b < beds.size(); ++b) {
    for (const RoutingScheme s : bed_schemes[b]) {
      for (const double load : loads) {
        cells.push_back({grid_beds[b], s, load});
        cell_bed.push_back(&beds[b]);
      }
    }
  }

  RunConfig base = default_config(opts);
  if (opts.fast) {
    base.warmup = us(40);
    base.measure = us(100);
  }
  const std::vector<RunResult> grid = run_grid<RunResult>(
      static_cast<int>(cells.size()), opts, [&](int i) {
        const GridSpec& c = cells[static_cast<std::size_t>(i)];
        const Testbed& tb = *cell_bed[static_cast<std::size_t>(i)];
        UniformPattern pattern(tb.topo().num_hosts());
        RunConfig cfg = base;
        cfg.load_flits_per_ns_per_switch = c.load;
        return run_point(tb, c.scheme, pattern, cfg);
      });

  TextTable table({"testbed", "scheme", "load", "offered", "accepted",
                   "lat(ns)", "p99(ns)", "itbs"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridSpec& c = cells[i];
    const RunResult& r = grid[i];
    char load[32], off[32], acc[32], lat[32], p99[32], itbs[32];
    std::snprintf(load, sizeof load, "%.3f", c.load);
    std::snprintf(off, sizeof off, "%.4f", r.offered);
    std::snprintf(acc, sizeof acc, "%.4f", r.accepted);
    std::snprintf(lat, sizeof lat, "%.0f", r.avg_latency_ns);
    std::snprintf(p99, sizeof p99, "%.0f", r.p99_latency_ns);
    std::snprintf(itbs, sizeof itbs, "%.2f", r.avg_itbs);
    table.add_row({c.testbed, to_string(c.scheme), load, off, acc, lat, p99,
                   itbs});
  }
  table.print(std::cout);

  TextTable ttable({"testbed", "sw", "hosts", "table", "bytes", "build(ms)"});
  for (const TableStat& t : tables) {
    char bytes[32], ms[32];
    std::snprintf(bytes, sizeof bytes, "%llu",
                  static_cast<unsigned long long>(t.table_bytes));
    std::snprintf(ms, sizeof ms, "%.1f", t.build_ms);
    ttable.add_row({t.testbed, std::to_string(t.switches),
                    std::to_string(t.hosts), to_string(t.scheme), bytes, ms});
  }
  std::printf("\nroute-table footprint (ITB table shared by SP/RR):\n");
  ttable.print(std::cout);

  // ------------------------------------------------------------- scale
  // Checked >=1k-switch cells: zero invariant violations or bust.
  const std::vector<std::string> scale_beds =
      opts.fast ? std::vector<std::string>{"hyperx32x32"}
                : std::vector<std::string>{"hyperx32x32", "dragonfly16"};

  struct ScaleCell {
    std::string testbed;
    int switches = 0;
    int hosts = 0;
    RunResult serial;
  };
  std::vector<ScaleCell> scale;
  bool scale_ok = true;

  for (const std::string& name : scale_beds) {
    Testbed tb = make_testbed(name);
    tb.warm(RoutingScheme::kItbSp, opts.jobs);
    ScaleCell cell;
    cell.testbed = name;
    cell.switches = tb.topo().num_switches();
    cell.hosts = tb.topo().num_hosts();

    UniformPattern pattern(tb.topo().num_hosts());
    RunConfig cfg = base;
    cfg.checked = true;  // route verifier + deadlock watchdog
    cfg.warmup = us(opts.fast ? 15 : 40);
    cfg.measure = us(opts.fast ? 40 : 120);
    cfg.load_flits_per_ns_per_switch = 0.004;
    cell.serial = run_point(tb, RoutingScheme::kItbRr, pattern, cfg);
    if (cell.serial.invariant_violations != 0) {
      std::printf("INVARIANT VIOLATION: %s recorded %llu violation(s)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      cell.serial.invariant_violations));
      scale_ok = false;
    }
    scale.push_back(std::move(cell));
  }

  std::printf("\nscale cells (checked, ITB-RR):\n");
  TextTable stable({"testbed", "sw", "hosts", "accepted", "lat(ns)",
                    "events", "violations"});
  for (const ScaleCell& c : scale) {
    char acc[32], lat[32];
    std::snprintf(acc, sizeof acc, "%.4f", c.serial.accepted);
    std::snprintf(lat, sizeof lat, "%.0f", c.serial.avg_latency_ns);
    stable.add_row({c.testbed, std::to_string(c.switches),
                    std::to_string(c.hosts), acc, lat,
                    std::to_string(c.serial.events),
                    std::to_string(c.serial.invariant_violations)});
  }
  stable.print(std::cout);
  std::printf("scale invariants: %s\n",
              scale_ok ? "OK (0 violations)" : "VIOLATED");

  return scale_ok ? 0 : 1;
}
