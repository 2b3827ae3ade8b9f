// Shared setup for the reproduction benches: paper topologies, default
// measurement windows, and printing helpers.
//
// Every bench binary accepts --fast / --full / --record FILE (bench_paper
// writes the record) and honours the ITB_BENCH_FAST environment variable.
// FAST mode shrinks the simulated windows and sweep resolution so the whole
// suite smoke-tests in well under a minute; FULL mode (the default) uses
// windows long enough for stable averages at the paper's scale.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "sim/pool.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/testbed.hpp"
#include "sim/rng.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb::bench {

/// The three evaluation networks of §4.1, plus the low-diameter frontier
/// cells of bench_lowdiameter (auto-rooted: a corner root would needlessly
/// deepen the up*/down* tree on these dense graphs).
inline Testbed make_testbed(const std::string& name) {
  if (name == "torus") return Testbed(make_torus_2d(8, 8, 8));
  if (name == "express") return Testbed(make_torus_2d_express(8, 8, 8));
  if (name == "cplant") return Testbed(make_cplant());
  if (name == "hyperx8x8") return Testbed(make_hyperx({8, 8}, 8), kAutoRoot);
  if (name == "hyperx16x16") {
    return Testbed(make_hyperx({16, 16}, 8), kAutoRoot);
  }
  if (name == "hyperx32x32") {
    return Testbed(make_hyperx({32, 32}, 8), kAutoRoot);
  }
  if (name == "dragonfly4") return Testbed(make_dragonfly(4, 4, 2), kAutoRoot);
  if (name == "dragonfly8") return Testbed(make_dragonfly(8, 8, 4), kAutoRoot);
  if (name == "dragonfly16") {
    return Testbed(make_dragonfly(16, 8, 8), kAutoRoot);
  }
  if (name == "fullmesh16") return Testbed(make_full_mesh(16, 8), kAutoRoot);
  if (name == "fullmesh64") return Testbed(make_full_mesh(64, 8), kAutoRoot);
  throw std::invalid_argument("unknown testbed: " + name);
}

inline RunConfig default_config(const BenchOptions& opts) {
  RunConfig cfg;
  cfg.payload_bytes = 512;
  if (opts.fast) {
    cfg.warmup = us(60);
    cfg.measure = us(150);
  } else {
    cfg.warmup = us(150);
    cfg.measure = us(400);
  }
  return cfg;
}

/// Sensible saturation-sweep starting loads (flits/ns/switch) per network:
/// roughly 40% of the UP/DOWN saturation point so ladders stay short.
inline double start_load(const std::string& testbed) {
  if (testbed == "torus") return 0.006;
  if (testbed == "express") return 0.02;
  return 0.015;  // cplant
}

inline const std::vector<RoutingScheme>& paper_schemes() {
  static const std::vector<RoutingScheme> kSchemes = {
      RoutingScheme::kUpDown, RoutingScheme::kItbSp, RoutingScheme::kItbRr};
  return kSchemes;
}

/// `count` distinct hotspot hosts, drawn from a fixed seed: Tables 1-3 use
/// the first 10 (3 at --fast), Fig. 11 and the gate's G5 a prefix of the
/// same draw.
inline std::vector<HostId> hotspot_locations(int num_hosts, int count,
                                             std::uint64_t seed = 2000) {
  Rng rng(seed);
  std::vector<HostId> out;
  while (static_cast<int>(out.size()) < count) {
    const auto h = static_cast<HostId>(
        rng.next_below(static_cast<std::uint64_t>(num_hosts)));
    if (std::find(out.begin(), out.end(), h) == out.end()) out.push_back(h);
  }
  return out;
}

/// Print a measured-vs-paper anchor line.
inline void print_anchor(const char* label, double measured, double paper) {
  std::printf("  %-28s measured %.4f   paper %.4f   ratio %.2f\n", label,
              measured, paper, paper > 0 ? measured / paper : 0.0);
}

inline void print_header(const char* experiment, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("==============================================================\n");
}

/// Parallel grid runner: evaluate `fn(i)` for each of `n` independent
/// (testbed × scheme × pattern) cells across `opts.jobs` workers and
/// return the results in cell order.  Each cell must construct all of its
/// mutable state inside `fn` (shared Testbeds must be warmed first), so
/// the results are identical to running the cells serially — printing is
/// then done from the ordered results, keeping output byte-stable.
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> run_grid(int n, const BenchOptions& opts,
                                      Fn&& fn) {
  return parallel_map<R>(n, opts.jobs, std::forward<Fn>(fn));
}

}  // namespace itb::bench
