// Parallel-engine scaling microbench: a fixed 16-point workload (16 seed
// replications of one uniform-traffic point on the paper's torus) run at
// 1/2/4/8 workers, reporting wall time, aggregate events/sec and speedup
// vs the serial run.  Also cross-checks the determinism contract: every
// jobs value must reproduce the serial results bit-for-bit (the binary
// exits non-zero if not, so it can double as a CI check).
//
// Expected shape: near-linear speedup up to the physical core count
// (>= 3x at --jobs 4 on a 4-core machine), flat beyond it.
#include "bench_common.hpp"

#include <chrono>

#include "harness/replicate.hpp"

using namespace itb;
using namespace itb::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_args(argc, argv);
  print_header("Parallel scaling",
               "16 replications across 1/2/4/8 workers, torus + uniform");

  Testbed tb = make_testbed("torus");
  tb.warm_all();
  UniformPattern pattern(tb.topo().num_hosts());
  RunConfig cfg = default_config(opts);
  if (opts.fast) {
    cfg.warmup = us(40);
    cfg.measure = us(100);
  }
  cfg.load_flits_per_ns_per_switch = start_load("torus");
  constexpr int kPoints = 16;

  struct Sample {
    int jobs;
    double wall_s;
    std::uint64_t events;
    std::uint64_t heap_allocs_steady_state;
  };
  std::vector<Sample> samples;
  ReplicatedResult baseline;

  bool deterministic = true;
  for (const int jobs : {1, 2, 4, 8}) {
    const auto t0 = std::chrono::steady_clock::now();
    ReplicatedResult rep =
        run_replicated(tb, RoutingScheme::kItbRr, pattern, cfg, kPoints, jobs);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t events = 0, steady = 0;
    for (const RunResult& r : rep.runs) {
      events += r.events;
      steady += r.heap_allocs_steady_state;
    }
    samples.push_back({jobs, wall_s, events, steady});
    if (jobs == 1) {
      baseline = std::move(rep);
    } else {
      for (int k = 0; k < kPoints; ++k) {
        if (!same_simulated_metrics(baseline.runs[k], rep.runs[k])) {
          std::printf("DETERMINISM VIOLATION: replication %d differs at "
                      "--jobs %d\n", k, jobs);
          deterministic = false;
        }
      }
    }
  }

  // Per-worker rate divides the aggregate by the workers that can actually
  // run at once (min(jobs, cores)); the ratio jobs=N / jobs=1 is the
  // parallel efficiency.  On an oversubscribed box
  // (jobs > cores) healthy efficiency stays near 1.0 — it only drops when
  // the workers contend, e.g. on the global allocator lock.
  const unsigned hw = std::thread::hardware_concurrency();
  const auto per_worker = [hw](const Sample& s) {
    const int eff_workers =
        std::min(s.jobs, static_cast<int>(hw > 0 ? hw : 1));
    return static_cast<double>(s.events) / s.wall_s /
           static_cast<double>(eff_workers);
  };
  const double serial_rate = per_worker(samples.front());

  TextTable table({"jobs", "wall(s)", "Mevents/s", "speedup", "per-worker",
                   "efficiency", "steady-allocs"});
  const double serial_wall = samples.front().wall_s;
  for (const Sample& s : samples) {
    char wall[32], evps[32], speed[32], pw[32], eff[32];
    std::snprintf(wall, sizeof wall, "%.2f", s.wall_s);
    std::snprintf(evps, sizeof evps, "%.2f",
                  static_cast<double>(s.events) / s.wall_s / 1e6);
    std::snprintf(speed, sizeof speed, "%.2fx", serial_wall / s.wall_s);
    std::snprintf(pw, sizeof pw, "%.2fM", per_worker(s) / 1e6);
    std::snprintf(eff, sizeof eff, "%.3f", per_worker(s) / serial_rate);
    table.add_row({std::to_string(s.jobs), wall, evps, speed, pw, eff,
                   std::to_string(s.heap_allocs_steady_state)});
  }
  table.print(std::cout);
  std::printf("\nhardware concurrency: %u   determinism: %s\n", hw,
              deterministic ? "OK (all jobs values bit-identical)"
                            : "VIOLATED");

  return deterministic ? 0 : 1;
}
