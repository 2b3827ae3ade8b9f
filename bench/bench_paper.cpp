// The paper's evaluation (§4): Figures 7-12 and Tables 1-3 as one table of
// cells, run as one parallel grid over shared, warmed testbeds.  Each
// figure's block prints from the ordered results in the paper's layout.
//
// --record FILE writes every simulated number, beside the paper's, as JSON
// with one entry per line, so a moved number is a one-line diff.  It holds
// no host-side field, so it is identical for every --jobs value; the
// committed REPRO.json is `bench_paper --jobs 1 --record REPRO.json`.
//
// Exits 1, after printing and writing the record, when a verdict the paper
// states fails: under local traffic ITB-RR reaches 0.9x UP/DOWN's
// saturation (Fig. 12), and a 10% hotspot heats the root area under UP/DOWN
// but the hotspot area under ITB-RR (Fig. 11).
#include "bench_common.hpp"

#include <array>
#include <cstdarg>
#include <map>
#include <memory>
#include <span>

#include "metrics/link_util.hpp"

using namespace itb;
using namespace itb::bench;

namespace {

constexpr auto kUD = RoutingScheme::kUpDown;
constexpr auto kSP = RoutingScheme::kItbSp;
constexpr auto kRR = RoutingScheme::kItbRr;

/// How a cell's block prints: one value per figure, one for the tables.
enum class Block { kFig7, kFig8, kFig9, kFig10, kFig11, kFig12, kTable };

/// find_saturation's geometric ladder.
struct Ladder {
  double start;  // first rung; 0 means `scale` x start_load(net)
  double scale;
  double growth_fast, growth_full;
  int rungs_fast, rungs_full;
};

constexpr Ladder kCurveLadder{0, 1.0, 1.45, 1.25, 10, 18};
constexpr Ladder kHotspotLadder{0, 0.7, 1.5, 1.3, 9, 14};
constexpr Ladder kLocalLadder{0.04, 0, 1.5, 1.3, 9, 14};

/// One (figure, network, pattern) block.  Each run is one scheme, either up
/// a saturation ladder or, when `loads` is set, at a fixed load with link
/// utilization on; a hotspot cell repeats its runs for every (fraction,
/// location) pattern.
struct Cell {
  const char* id;       // "<figure>/<network>": the record keys' prefix
  Block block;
  const char* net;      // make_testbed name
  const char* pattern;  // "uniform", "bit-reversal", "local" or "hotspot"
  int radius = 0;       // local: destinations at most this many switches away
  std::array<double, 2> fractions{};  // hotspot traffic fractions
  std::array<RoutingScheme, 3> schemes{kUD, kSP, kRR};
  int runs = 3;
  Ladder ladder{};
  std::array<double, 3> loads{};  // fixed-load cells, one per run
  // The paper's saturation throughputs, [fraction][run]; 0 where none.
  std::array<std::array<double, 3>, 2> paper{};
  const char* title = nullptr;  // print_header's, on a figure's first cell
  const char* what = nullptr;
  const char* note = nullptr;   // the paper's prose, after the block
};

constexpr Cell kCells[] = {
    {.id = "fig7/torus", .block = Block::kFig7, .net = "torus",
     .pattern = "uniform", .ladder = kCurveLadder,
     .paper = {{{0.015, 0.029, 0.032}}}, .title = "Figure 7",
     .what = "uniform traffic: latency vs accepted traffic"},
    {.id = "fig7/express", .block = Block::kFig7, .net = "express",
     .pattern = "uniform", .ladder = kCurveLadder,
     .paper = {{{0.070, 0.120, 0.110}}}},
    {.id = "fig7/cplant", .block = Block::kFig7, .net = "cplant",
     .pattern = "uniform", .ladder = kCurveLadder,
     .paper = {{{0.050, 0.090, 0.095}}}},

    {.id = "fig8/torus", .block = Block::kFig8, .net = "torus",
     .pattern = "uniform", .schemes = {kUD, kRR, kRR},
     .loads = {0.015, 0.015, 0.030}, .title = "Figure 8",
     .what = "2-D torus link utilization, uniform traffic",
     .note =
         "\npaper: (a) near-root links reach ~50%, 65% of links <10%;\n"
         "       (b) all links <12%;  (c) links range 14-29%; ~20% of links\n"
         "       idle >10% of the time due to stop&go at ITB-RR saturation.\n"},

    {.id = "fig9/express", .block = Block::kFig9, .net = "express",
     .pattern = "uniform", .schemes = {kUD, kRR}, .runs = 2,
     .loads = {0.066, 0.066}, .title = "Figure 9",
     .what = "torus+express link utilization at UP/DOWN saturation (0.066)",
     .note =
         "\npaper: UP/DOWN concentrates ~50% utilization near the root while\n"
         "       most links idle; ITB-RR keeps all links <30%, with express\n"
         "       channels ~25% and regular links ~10%.\n"},

    // CPLANT has no bit-reversal panel: 400 hosts is not a power of two.
    {.id = "fig10/torus", .block = Block::kFig10, .net = "torus",
     .pattern = "bit-reversal", .ladder = kCurveLadder,
     .paper = {{{0.017, 0, 0.032}}}, .title = "Figure 10",
     .what = "bit-reversal traffic: latency vs accepted traffic"},
    {.id = "fig10/express", .block = Block::kFig10, .net = "express",
     .pattern = "bit-reversal", .ladder = kCurveLadder,
     .paper = {{{0.070, 0, 0.110}}}},

    {.id = "table1/torus", .block = Block::kTable, .net = "torus",
     .pattern = "hotspot", .fractions = {0.05, 0.10},
     .ladder = kHotspotLadder,
     .paper = {{{0.0125, 0.0267, 0.0274}, {0.0123, 0.0173, 0.0183}}},
     .title = "Table 1", .what = "hotspot throughput, 2-D torus",
     .note =
         "\npaper: at 5% ITB-SP/RR improve UP/DOWN by 2.13x/2.19x; at 10%\n"
         "       the gain shrinks to 1.40x/1.48x (the hotspot itself becomes\n"
         "       the bottleneck).  "},
    {.id = "table2/express", .block = Block::kTable, .net = "express",
     .pattern = "hotspot", .fractions = {0.03, 0.05},
     .ladder = kHotspotLadder,
     .paper = {{{0.0483, 0.0546, 0.0542}, {0.0334, 0.0363, 0.0359}}},
     .title = "Table 2",
     .what = "hotspot throughput, 2-D torus with express channels",
     .note =
         "\npaper: gains shrink to 1.13x/1.12x (3%) and 1.08x/1.07x (5%) —\n"
         "       with express channels the hotspot, not the root, limits\n"
         "       throughput.  "},
    {.id = "table3/cplant", .block = Block::kTable, .net = "cplant",
     .pattern = "hotspot", .fractions = {0.05}, .ladder = kHotspotLadder,
     .paper = {{{0.0340, 0.0423, 0.0451}}}, .title = "Table 3",
     .what = "hotspot throughput, CPLANT",
     .note = "\npaper: ITB-SP/ITB-RR improve UP/DOWN by 1.24x/1.32x.\n"},

    // At UP/DOWN's 10% hotspot saturation (Table 1), on Table 1's first
    // hotspot location.
    {.id = "fig11/torus", .block = Block::kFig11, .net = "torus",
     .pattern = "hotspot", .fractions = {0.10}, .schemes = {kUD, kRR},
     .runs = 2, .loads = {0.0123, 0.0123}, .title = "Figure 11",
     .what = "torus link utilization, 10% hotspot, at UP/DOWN saturation",
     .note =
         "\npaper: UP/DOWN saturates at its root switch even with the hotspot\n"
         "       present; ITB-RR saturates at the hotspot itself.\n"},

    {.id = "fig12/torus", .block = Block::kFig12, .net = "torus",
     .pattern = "local", .radius = 3, .ladder = kLocalLadder,
     .paper = {{{0.10, 0, 0.13}}}, .title = "Figure 12",
     .what = "local traffic (<=3 switches): latency vs traffic"},
    {.id = "fig12/express", .block = Block::kFig12, .net = "express",
     .pattern = "local", .radius = 3, .ladder = kLocalLadder,
     .paper = {{{0.15, 0, 0.15}}}},  // "UP/DOWN performs as ITB-RR"
    {.id = "fig12/cplant", .block = Block::kFig12, .net = "cplant",
     .pattern = "local", .radius = 3, .ladder = kLocalLadder,
     .paper = {{{0.12, 0, 0.13}}}},  // "small benefits"
    // §4.2's 4-switch variant: the paper gives no numbers for it.
    {.id = "fig12/torus-local4", .block = Block::kFig12, .net = "torus",
     .pattern = "local", .radius = 4, .ladder = {0.02, 0, 1.5, 1.3, 9, 14}},
};

std::size_t num_fractions(const Cell& c) { return c.fractions[1] > 0 ? 2 : 1; }

/// One grid task: run `run` of a cell; on a hotspot cell, at one fraction
/// and location.
struct Task {
  const Cell* cell;
  const Testbed* tb;
  double fraction;
  HostId spot;
  std::size_t run;
};

SaturationResult run_task(const Task& t, const BenchOptions& opts) {
  const Cell& c = *t.cell;
  const Topology& topo = t.tb->topo();
  const std::string name = c.pattern;
  std::unique_ptr<DestinationPattern> pattern;
  if (name == "hotspot") {
    pattern = std::make_unique<HotspotPattern>(topo.num_hosts(), t.spot,
                                               t.fraction);
  } else if (name == "uniform") {
    pattern = std::make_unique<UniformPattern>(topo.num_hosts());
  } else if (name == "bit-reversal") {
    pattern = std::make_unique<BitReversalPattern>(topo.num_hosts());
  } else {
    pattern = std::make_unique<LocalPattern>(topo, c.radius);
  }
  RunConfig cfg = default_config(opts);
  if (c.loads[0] > 0) {
    cfg.load_flits_per_ns_per_switch = c.loads[t.run];
    cfg.collect_link_util = true;
    SaturationResult one;
    one.trace.push_back(
        {c.loads[t.run], run_point(*t.tb, c.schemes[t.run], *pattern, cfg)});
    return one;
  }
  const Ladder& l = c.ladder;
  return find_saturation(*t.tb, c.schemes[t.run], *pattern, cfg,
                         l.start > 0 ? l.start : start_load(c.net) * l.scale,
                         opts.fast ? l.growth_fast : l.growth_full,
                         opts.fast ? l.rungs_fast : l.rungs_full);
}

/// The record (null without --record), written as the blocks print, and
/// the count of failed verdicts.
std::FILE* record = nullptr;
int failed_verdicts = 0;

/// One `"key": {fields}` line of the record.
[[gnu::format(printf, 2, 3)]] void entry(const std::string& key,
                                         const char* fields, ...) {
  static const char* separator = "{\n";
  if (record == nullptr) return;
  std::fprintf(record, "%s  \"%s\": {", separator, key.c_str());
  separator = ",\n";
  va_list args;
  va_start(args, fields);
  std::vfprintf(record, fields, args);
  va_end(args);
  std::fputc('}', record);
}

std::string fmt(const char* spec, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// A paper value for the record: `null` where the paper gives none.
std::string paper(double v, const char* spec = "%.4f") {
  return v > 0 ? fmt(spec, v) : "null";
}

const char* boolean(bool b) { return b ? "true" : "false"; }

/// What a printer reads: the cell, its topology, its hotspot locations and
/// its slice of the grid's results in task order.
struct View {
  const Cell& c;
  const Topology& topo;
  const std::vector<HostId>& spots;
  std::span<const SaturationResult> res;
};

// --- Figs. 7, 10 and 12: latency/traffic curves ---------------------------

void print_curves(const View& v) {
  const Cell& c = v.c;
  const std::string id = c.id;
  const bool anchored = c.paper[0][0] > 0;  // all but §4.2's variant
  if (c.block == Block::kFig7) {
    std::printf("\n--- %s (%d switches, %d hosts) ---\n", c.net,
                v.topo.num_switches(), v.topo.num_hosts());
  } else if (c.block == Block::kFig10) {
    std::printf("\n--- %s ---\n", c.net);
  } else {
    std::printf("\n--- %s, destinations <= %d switches away ---\n", c.net,
                c.radius);
  }
  const std::string title = id.substr(0, id.find('/')) + " " + c.net + " " +
                            c.pattern +
                            (c.radius > 0 ? std::to_string(c.radius) : "");
  std::array<double, 3> sat{};
  for (std::size_t r = 0; r < 3; ++r) {
    const char* scheme = to_string(c.schemes[r]);
    const SaturationResult& res = v.res[r];
    sat[r] = res.throughput;
    if (anchored) print_series(std::cout, title, scheme, res.trace);
    entry(id + "/" + scheme,
          R"("saturation": %.4f, "paper": %s, "gain": %.2f, "paper_gain": %s)",
          sat[r], paper(c.paper[0][r]).c_str(), sat[r] / sat[0],
          paper(c.paper[0][r] / c.paper[0][0], "%.2f").c_str());
    for (std::size_t i = 0; i < res.trace.size(); ++i) {
      const RunResult& p = res.trace[i].result;
      entry(id + "/" + scheme + "/" + std::to_string(i),
            R"("offered": %.4f, "accepted": %.4f, "latency_ns": %.1f, )"
            R"("lat_gen_ns": %.1f, "p99_ns": %.1f, "itbs": %.2f, )"
            R"("saturated": %s)",
            p.offered, p.accepted, p.avg_latency_ns, p.avg_latency_gen_ns,
            p.p99_latency_ns, p.avg_itbs, boolean(p.saturated));
    }
  }

  if (c.block == Block::kFig12 && !anchored) {
    for (std::size_t r = 0; r < 3; ++r) {
      std::printf("  %-8s saturation %.4f\n", to_string(c.schemes[r]), sat[r]);
    }
  } else if (c.block == Block::kFig12) {
    const bool ok = sat[2] >= 0.9 * sat[0];
    std::printf("saturation: UP/DOWN %.4f  ITB-SP %.4f  ITB-RR %.4f "
                "(paper ~%.2f vs ~%.2f)\n",
                sat[0], sat[1], sat[2], c.paper[0][0], c.paper[0][2]);
    std::printf("ITB-RR / UP-DOWN: %.2fx — ITB must not lose: %s\n",
                sat[2] / sat[0], ok ? "OK" : "VIOLATED");
    entry(id + "/verdict", R"("itb_rr_ge_0.9x_updown": %s)", boolean(ok));
    if (!ok) ++failed_verdicts;
  } else {
    if (c.block == Block::kFig7) {
      std::printf("\nsaturation throughput (flits/ns/switch), %s:\n", c.net);
    } else {
      std::printf("\nsaturation throughput, %s (%s):\n", c.net, c.pattern);
    }
    for (std::size_t r = 0; r < 3; ++r) {
      if (c.paper[0][r] > 0) {
        print_anchor(to_string(c.schemes[r]), sat[r], c.paper[0][r]);
      }
    }
    for (std::size_t r = 1; r < 3; ++r) {
      if (c.paper[0][r] > 0) {
        std::printf("  %s / UP-DOWN improvement: %.2fx (paper %.2fx)\n",
                    to_string(c.schemes[r]), sat[r] / sat[0],
                    c.paper[0][r] / c.paper[0][0]);
      }
    }
  }
}

// --- Figs. 8, 9 and 11: link utilization at a fixed load ------------------

// Express cables are the second-order ones: endpoints two grid steps
// apart (mod 8).
bool is_express(const Topology& topo, const ChannelUtil& u) {
  if (u.to_host || u.from_sw == kNoSwitch || u.to_sw == kNoSwitch) return false;
  const SwitchPos a = topo.pos(u.from_sw);
  const SwitchPos b = topo.pos(u.to_sw);
  const int dx = std::min((a.x - b.x + 8) % 8, (b.x - a.x + 8) % 8);
  const int dy = std::min((a.y - b.y + 8) % 8, (b.y - a.y + 8) % 8);
  return dx == 2 || dy == 2;
}

/// Fig. 9's express/regular split: express channels carry the shortcuts,
/// regular links mostly the final hop.
void print_express_split(const std::string& key, const Topology& topo,
                         const RunResult& p) {
  double express_sum = 0, regular_sum = 0, express_max = 0, regular_max = 0;
  int express_n = 0, regular_n = 0;
  for (const auto& u : p.link_util) {
    if (is_express(topo, u)) {
      express_sum += u.utilization;
      express_max = std::max(express_max, u.utilization);
      ++express_n;
    } else if (!u.to_host) {
      regular_sum += u.utilization;
      regular_max = std::max(regular_max, u.utilization);
      ++regular_n;
    }
  }
  std::printf("  express channels: avg %.1f%%  max %.1f%%  (%d channels)\n",
              100 * express_sum / express_n, 100 * express_max, express_n);
  std::printf("  regular links:    avg %.1f%%  max %.1f%%  (%d channels)\n",
              100 * regular_sum / regular_n, 100 * regular_max, regular_n);
  entry(key + "/split",
        R"("express_avg_pct": %.1f, "express_max_pct": %.1f, )"
        R"("regular_avg_pct": %.1f, "regular_max_pct": %.1f)",
        100 * express_sum / express_n, 100 * express_max,
        100 * regular_sum / regular_n, 100 * regular_max);
}

/// Fig. 11's near-root and near-hotspot maxima: the hottest channel
/// touching the root's (the hotspot's) switch or a neighbour.  The root area
/// must dominate under UP/DOWN (run 0), the hotspot area under ITB-RR.
void print_hotspot_maxima(const std::string& key, const View& v,
                          const RunResult& p, double near_root,
                          std::size_t run) {
  const SwitchId spot_sw = v.topo.host(v.spots[0]).sw;
  const double near_spot =
      summarize_link_utilization(p.link_util, v.topo, spot_sw).max_near_root;
  const bool root_dominates = near_root > near_spot;
  std::printf("  hottest link near root:    %.1f%%\n", 100 * near_root);
  std::printf("  hottest link near hotspot: %.1f%%\n", 100 * near_spot);
  std::printf("  %s\n", root_dominates
                            ? "-> root area dominates (UP/DOWN behaviour)"
                            : "-> hotspot area dominates (ITB behaviour)");
  if (root_dominates != (run == 0)) ++failed_verdicts;
  entry(key + "/maxima",
        R"("near_hotspot_max_pct": %.1f, "root_dominates": %s)",
        100 * near_spot, boolean(root_dominates));
}

void print_maps(const View& v) {
  const Cell& c = v.c;
  if (c.block == Block::kFig11) {
    const SwitchId sw = v.topo.host(v.spots[0]).sw;
    std::printf("hotspot host %d on switch %d (root is switch 0)\n",
                v.spots[0], sw);
    entry(std::string(c.id) + "/hotspot", R"("host": %d, "switch": %d)",
          v.spots[0], sw);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(c.runs); ++r) {
    const RunResult& p = v.res[r].trace[0].result;
    const char* scheme = to_string(c.schemes[r]);
    const auto s = summarize_link_utilization(p.link_util, v.topo, 0);
    const std::string key =
        std::string(c.id) + "/" + scheme + "@" + fmt("%g", c.loads[r]);
    entry(key,
          R"("accepted": %.4f, "max_pct": %.1f, "near_root_max_pct": %.1f, )"
          R"("elsewhere_max_pct": %.1f, "under_10pct_pct": %.1f, )"
          R"("stopped_over_10pct_pct": %.1f)",
          p.accepted, 100 * s.max_utilization, 100 * s.max_near_root,
          100 * s.max_far_from_root, 100 * s.fraction_below_10pct,
          100 * s.fraction_stopped_over_10pct);
    if (c.block == Block::kFig11) {
      std::printf("\n--- %s (accepted %.4f) ---\n", scheme, p.accepted);
    } else {
      std::printf("\n--- %s at %.3f flits/ns/switch (accepted %.4f) ---\n",
                  scheme, c.loads[r], p.accepted);
    }
    if (c.block != Block::kFig9) {
      std::printf("%s\n", render_grid_utilization(p.link_util, v.topo).c_str());
    }
    if (c.block != Block::kFig11) {
      std::printf(
          "  max util %.0f%%  near-root max %.0f%%  elsewhere max %.0f%%\n",
          100 * s.max_utilization, 100 * s.max_near_root,
          100 * s.max_far_from_root);
    }
    if (c.block == Block::kFig8) {
      std::printf("  links under 10%% utilization: %.0f%%\n",
                  100 * s.fraction_below_10pct);
      std::printf("  links stopped by flow control >10%% of time: %.0f%%\n",
                  100 * s.fraction_stopped_over_10pct);
    } else if (c.block == Block::kFig9) {
      print_express_split(key, v.topo, p);
      std::printf("  links under 10%%: %.0f%%\n", 100 * s.fraction_below_10pct);
    } else {
      print_hotspot_maxima(key, v, p, s.max_near_root, r);
    }
  }
}

// --- Tables 1-3: hotspot saturation throughput ----------------------------

void print_table(const View& v) {
  const Cell& c = v.c;
  const std::size_t locations = v.spots.size();
  std::array<std::array<double, 3>, 2> avg{};
  for (std::size_t fi = 0; fi < num_fractions(c); ++fi) {
    const double pct = c.fractions[fi] * 100.0;
    const std::string key = std::string(c.id) + "/" + fmt("%.0f", pct) + "%";
    std::printf("\n%.0f %% hotspot traffic, %s:\n", pct, c.net);
    TextTable table({"Hotspot", "U/D", "ITB-SP", "ITB-RR"});
    std::array<double, 3> sums{};
    for (std::size_t li = 0; li < locations; ++li) {
      const SaturationResult* row = &v.res[(fi * locations + li) * 3];
      for (std::size_t si = 0; si < 3; ++si) sums[si] += row[si].throughput;
      table.add_row({std::to_string(li + 1), fmt_load(row[0].throughput),
                     fmt_load(row[1].throughput), fmt_load(row[2].throughput)});
      entry(key + "/" + std::to_string(li + 1),
            R"("host": %d, "UP/DOWN": %.4f, "ITB-SP": %.4f, "ITB-RR": %.4f)",
            v.spots[li], row[0].throughput, row[1].throughput,
            row[2].throughput);
    }
    for (std::size_t si = 0; si < 3; ++si) {
      avg[fi][si] = sums[si] / static_cast<double>(locations);
    }
    for (std::size_t si = 0; si < 3; ++si) {
      entry(key + "/" + to_string(c.schemes[si]),
            R"("avg": %.4f, "paper": %.4f, "gain": %.2f)", avg[fi][si],
            c.paper[fi][si], avg[fi][si] / avg[fi][0]);
    }
    table.add_row({"Avg", fmt_load(avg[fi][0]), fmt_load(avg[fi][1]),
                   fmt_load(avg[fi][2])});
    table.print(std::cout);
  }

  std::printf("\naverages vs paper:\n");
  for (std::size_t fi = 0; fi < num_fractions(c); ++fi) {
    if (num_fractions(c) > 1) {
      std::printf("%.0f%% hotspot:\n", c.fractions[fi] * 100);
    }
    for (std::size_t si = 0; si < 3; ++si) {
      print_anchor(to_string(c.schemes[si]), avg[fi][si], c.paper[fi][si]);
    }
  }
  std::fputs(c.note, stdout);
  std::printf("measured:");
  for (std::size_t fi = 0; fi < num_fractions(c); ++fi) {
    std::printf("%s %.2fx/%.2fx", fi > 0 ? " and" : "",
                avg[fi][1] / avg[fi][0], avg[fi][2] / avg[fi][0]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_args(argc, argv);
  if (!opts.record.empty() &&
      (record = std::fopen(opts.record.c_str(), "w")) == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.record.c_str());
    return 1;
  }

  // Every cell's tasks: fraction-major, then location, then run.
  std::map<std::string, Testbed> testbeds;
  std::vector<std::vector<HostId>> spots;  // per cell; kNoHost off hotspots
  std::vector<Task> tasks;
  std::vector<std::size_t> first_task;
  for (const Cell& c : kCells) {
    if (!testbeds.contains(c.net)) {
      testbeds.emplace(c.net, make_testbed(c.net)).first->second.warm_all();
    }
    const Testbed& tb = testbeds.at(c.net);
    const int count = c.block == Block::kTable ? (opts.fast ? 3 : 10) : 1;
    spots.push_back(std::string(c.pattern) == "hotspot"
                        ? hotspot_locations(tb.topo().num_hosts(), count)
                        : std::vector<HostId>{kNoHost});
    first_task.push_back(tasks.size());
    for (std::size_t fi = 0; fi < num_fractions(c); ++fi) {
      for (const HostId spot : spots.back()) {
        for (std::size_t r = 0; r < static_cast<std::size_t>(c.runs); ++r) {
          tasks.push_back({&c, &tb, c.fractions[fi], spot, r});
        }
      }
    }
  }
  first_task.push_back(tasks.size());

  const auto results = run_grid<SaturationResult>(
      static_cast<int>(tasks.size()), opts, [&](int i) {
        return run_task(tasks[static_cast<std::size_t>(i)], opts);
      });

  for (std::size_t ci = 0; ci < std::size(kCells); ++ci) {
    const Cell& c = kCells[ci];
    const View v{c, testbeds.at(c.net).topo(), spots[ci],
                 std::span(results).subspan(
                     first_task[ci], first_task[ci + 1] - first_task[ci])};
    if (c.title != nullptr) print_header(c.title, c.what);
    if (c.block == Block::kTable) {
      print_table(v);  // prints its note with the measured gains
    } else if (c.loads[0] > 0) {
      print_maps(v);
    } else {
      print_curves(v);
    }
    if (c.block != Block::kTable && c.note != nullptr) {
      std::fputs(c.note, stdout);
    }
  }
  if (record != nullptr) {
    std::fputs("\n}\n", record);
    if (std::ferror(record) != 0 || std::fclose(record) != 0) {
      std::fprintf(stderr, "error: cannot write %s\n", opts.record.c_str());
      return 1;
    }
  }
  if (failed_verdicts > 0) {
    std::fprintf(stderr, "bench_paper: %d paper verdict(s) failed\n",
                 failed_verdicts);
  }
  return failed_verdicts == 0 ? 0 : 1;
}
