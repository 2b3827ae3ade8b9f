// Reproduction gate: a fast, binary pass/fail check of the paper's core
// qualitative claims, meant for CI.  Runs scaled-down experiments and
// exits non-zero if any claim fails:
//
//   G1  torus/uniform: ITB-RR saturation >= 1.4x UP/DOWN
//   G2  torus/uniform: ITB-SP saturation >= 1.2x UP/DOWN
//   G3  UP/DOWN @0.015 concentrates near the root; ITB-RR does not
//   G4  torus static route facts: 4.57 / 4.06 avg hops, ~80% minimal
//   G5  hotspot 10%: ITB gain smaller than at 5% (hotspot limits ITB)
//   G6  local traffic: ITB never loses (>= 0.9x UP/DOWN)
//   G7  flow control: no slack overflow anywhere above
#include "bench_common.hpp"

#include "core/route_stats.hpp"
#include "metrics/link_util.hpp"

using namespace itb;
using namespace itb::bench;

namespace {

int failures = 0;

void gate(const char* id, bool ok, const std::string& detail) {
  std::printf("[%s] %-4s %s\n", ok ? "PASS" : "FAIL", id, detail.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = parse_bench_args(argc, argv);
  opts.fast = true;  // the gate always runs at smoke speed
  print_header("Reproduction gate", "pass/fail on the paper's core claims");

  Testbed tb = make_testbed("torus");
  UniformPattern uniform(tb.topo().num_hosts());
  RunConfig cfg = default_config(opts);

  std::uint64_t fc_violations = 0;

  // G1/G2: saturation ordering under uniform traffic.
  double sat[3];
  for (std::size_t i = 0; i < paper_schemes().size(); ++i) {
    const auto res = find_saturation(tb, paper_schemes()[i], uniform, cfg,
                                     start_load("torus"), 1.4, 10);
    sat[i] = res.throughput;
    for (const auto& p : res.trace) fc_violations += p.result.fc_violations;
  }
  gate("G1", sat[2] >= 1.4 * sat[0],
       "ITB-RR/UP-DOWN = " + fmt_ratio(sat[2] / sat[0]) + " (>= 1.40)");
  gate("G2", sat[1] >= 1.2 * sat[0],
       "ITB-SP/UP-DOWN = " + fmt_ratio(sat[1] / sat[0]) + " (>= 1.20)");

  // G3: root concentration.
  {
    RunConfig lc = cfg;
    lc.load_flits_per_ns_per_switch = 0.015;
    lc.collect_link_util = true;
    const RunResult ud = run_point(tb, RoutingScheme::kUpDown, uniform, lc);
    const RunResult rr = run_point(tb, RoutingScheme::kItbRr, uniform, lc);
    fc_violations += ud.fc_violations + rr.fc_violations;
    const auto s_ud = summarize_link_utilization(ud.link_util, tb.topo(), 0);
    const auto s_rr = summarize_link_utilization(rr.link_util, tb.topo(), 0);
    gate("G3",
         s_ud.max_near_root > 1.4 * s_ud.max_far_from_root &&
             s_rr.max_utilization < 0.25,
         "UP/DOWN root " + fmt_pct(s_ud.max_near_root) + " vs elsewhere " +
             fmt_pct(s_ud.max_far_from_root) + "; ITB-RR max " +
             fmt_pct(s_rr.max_utilization));
  }

  // G4: static route facts.
  {
    const auto st_ud = analyze_routes(tb.topo(), tb.routes(RoutingScheme::kUpDown));
    const auto st_itb = analyze_routes(tb.topo(), tb.routes(RoutingScheme::kItbSp));
    const bool ok = std::abs(st_ud.avg_hops_sp - 4.57) < 0.05 &&
                    std::abs(st_itb.avg_hops_sp - 4.06) < 0.05 &&
                    std::abs(st_ud.minimal_fraction_sp - 0.80) < 0.06 &&
                    st_itb.minimal_fraction_sp == 1.0;
    gate("G4", ok,
         "hops " + fmt_ratio(st_ud.avg_hops_sp) + "/" +
             fmt_ratio(st_itb.avg_hops_sp) + ", minimal " +
             fmt_pct(st_ud.minimal_fraction_sp));
  }

  // G5: hotspot sensitivity — a strong hotspot (20%) must depress the ITB
  // gain relative to a mild one (5%).  Averaged over 3 locations; a single
  // location at smoke resolution is too noisy for a strict inequality.
  {
    const auto spots = hotspot_locations(tb.topo().num_hosts(), 3);
    auto mean_gain = [&](double frac) {
      double sum = 0;
      for (const HostId spot : spots) {
        HotspotPattern h(tb.topo().num_hosts(), spot, frac);
        sum += find_saturation(tb, RoutingScheme::kItbRr, h, cfg, 0.005, 1.4,
                               10)
                   .throughput /
               find_saturation(tb, RoutingScheme::kUpDown, h, cfg, 0.005,
                               1.4, 10)
                   .throughput;
      }
      return sum / static_cast<double>(spots.size());
    };
    const double g5 = mean_gain(0.05);
    const double g20 = mean_gain(0.20);
    gate("G5", g20 < g5 && g20 > 0.8,
         "gain 5% = " + fmt_ratio(g5) + ", 20% = " + fmt_ratio(g20));
  }

  // G6: local traffic never loses.
  {
    LocalPattern local(tb.topo(), 3);
    const double ud =
        find_saturation(tb, RoutingScheme::kUpDown, local, cfg, 0.03, 1.4, 10)
            .throughput;
    const double rr =
        find_saturation(tb, RoutingScheme::kItbRr, local, cfg, 0.03, 1.4, 10)
            .throughput;
    gate("G6", rr >= 0.9 * ud, "local ITB-RR/UP-DOWN = " + fmt_ratio(rr / ud));
  }

  gate("G7", fc_violations == 0,
       "slack-buffer overflows = " + std::to_string(fc_violations));

  std::printf("\n%s (%d failure%s)\n",
              failures == 0 ? "REPRODUCTION GATE PASSED"
                            : "REPRODUCTION GATE FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
