// bench_suite: the repository's benchmark.  Four named workloads, their
// end-to-end metrics, and a separate traced pass that gives per-layer
// numbers.
//
// Every number is taken from outside the simulator, by timing calls into
// the modules' public functions: the topo generators, the Testbed
// constructor and Testbed::warm, SimpleRoutes, build_*_routes,
// RouteSet::alternatives, SimWorkspace::prepare, Simulator::run_until,
// run_point_in and find_saturation.  Nothing under src/ knows it is being
// measured.
//
//   bench_suite [--workload NAME|all] [--seed N] [--seconds S] [--fast]
//               [--json FILE] [--trace FILE]
//
// Without --trace: the untraced pass, which prints every end-to-end metric.
// With --trace FILE: the traced pass instead, which writes its spans to FILE
// as Chrome trace-event JSON and prints per-layer self times.  Either way
// the last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics, and the exit status is 1 when the run is
// not correct or an op failed.  --workload all re-executes this binary once
// per workload, so each gets a cold process and its own peak RSS.
// See README.md for the workloads and metric definitions.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "core/route_builder.hpp"
#include "harness/result_fields.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "sim/pool.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

#ifndef ITB_SUITE_GIT_SHA
#define ITB_SUITE_GIT_SHA "unknown"
#endif
#ifndef ITB_SUITE_BUILD_TYPE
#define ITB_SUITE_BUILD_TYPE "unknown"
#endif
#ifndef ITB_SUITE_COMPILER
#define ITB_SUITE_COMPILER "unknown"
#endif

namespace {

using namespace itb;
using Clock = std::chrono::steady_clock;

/// Worker count for every parallel call (table builds, grid cells).  Fixed
/// rather than nproc so that boxes with different core counts run the same
/// work, and because cold ITB builds at 4 workers on a 4-core box moved by
/// 15% between two sets of runs while 2 workers stayed within 8%.
constexpr int kJobs = 2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return splitmix64(state);
}

// ------------------------------------------------------------- workloads

/// Paper Fig. 7 saturation throughputs in flits/ns/switch.  A copy of the
/// anchors bench/bench_fig7_uniform.cpp prints against, until they move into
/// bench_common.hpp (see README.md).
struct Fig7Anchor {
  const char* net;  // bench::make_testbed name
  double paper_updown;
  double paper_itb_rr;
};
const Fig7Anchor kFig7[] = {
    {"torus", 0.015, 0.032},
    {"express", 0.070, 0.110},
    {"cplant", 0.050, 0.095},
};

struct Workload {
  std::string name;
  std::vector<std::string> nets;  // bench::make_testbed names
  /// Schemes warmed on every network at set-up; point workloads run the
  /// first one, the grid runs all three (UP/DOWN, ITB-SP, ITB-RR order).
  std::vector<RoutingScheme> schemes;
  RunConfig cfg;  // per point; the seed is derived per point or cell
  /// Point workloads: points per set (P).  Kept small so that a run holds
  /// many sets: first_point_s and sweep_s get one sample per set, and a set
  /// is less likely to hold one of the seeds that run 2.3x slower.
  int points = 0;
  bool grid = false;     // fig7_grid: one 9-cell find_saturation grid per set
  double growth = 1.25;  // grid ladder
  int rungs = 18;
};

const char* const kWorkloadNames[] = {"torus_itbrr", "dragonfly16_itbrr",
                                      "hyperx32x32_updown", "fig7_grid"};

std::optional<Workload> find_workload(const std::string& name, bool fast) {
  BenchOptions bench_opts;
  bench_opts.fast = fast;
  Workload w;
  w.name = name;
  w.cfg = bench::default_config(bench_opts);  // the grid's windows, 512 B
  const auto point = [&](double load, int warmup_us, int measure_us) {
    w.cfg.load_flits_per_ns_per_switch = load;
    w.cfg.warmup = us(warmup_us);
    w.cfg.measure = us(measure_us);
  };
  if (name == "torus_itbrr") {
    w.nets = {"torus"};
    w.schemes = {RoutingScheme::kItbRr};
    point(0.02, 150, fast ? 1000 : 4000);
    w.points = fast ? 3 : 4;
  } else if (name == "dragonfly16_itbrr") {
    w.nets = {"dragonfly16"};
    w.schemes = {RoutingScheme::kItbRr};
    point(0.004, 20, fast ? 100 : 400);
    w.points = fast ? 2 : 4;
  } else if (name == "hyperx32x32_updown") {
    w.nets = {"hyperx32x32"};
    w.schemes = {RoutingScheme::kUpDown};
    point(0.004, 20, fast ? 200 : 1000);
    w.points = fast ? 2 : 5;
  } else if (name == "fig7_grid") {
    for (const Fig7Anchor& a : kFig7) w.nets.emplace_back(a.net);
    w.schemes = bench::paper_schemes();
    w.grid = true;
    w.growth = fast ? 1.45 : 1.25;
    w.rungs = fast ? 10 : 18;
  } else {
    return std::nullopt;
  }
  return w;
}

/// One network ready to simulate.  Heap-held so addresses stay put while
/// grid workers read them.
struct Bed {
  Testbed tb;
  UniformPattern pattern;
};
using Beds = std::vector<std::unique_ptr<Bed>>;

/// The set-up a user pays before the first point: bench::make_testbed
/// (topology generator, up*/down* and root choice) and Testbed::warm for
/// every scheme the workload runs.
Beds set_up(const Workload& w) {
  Beds beds;
  for (const std::string& n : w.nets) {
    Testbed tb = bench::make_testbed(n);
    for (const RoutingScheme s : w.schemes) tb.warm(s, kJobs);
    const int hosts = tb.topo().num_hosts();
    beds.push_back(
        std::make_unique<Bed>(Bed{std::move(tb), UniformPattern(hosts)}));
  }
  return beds;
}

/// Point j of set k.  Every set draws fresh traffic seeds: some seeds make
/// the simulator much slower for the same work (5 of 80 torus points took
/// 2.3x as long for the same events), and fresh seeds keep such a point from
/// landing in every set's same position.  The last point repeats the set's
/// first one in the now-reused workspace, which must reproduce it exactly.
RunConfig point_config(const Workload& w, std::uint64_t seed, int set, int j) {
  if (j == w.points - 1) j = 0;
  RunConfig cfg = w.cfg;
  cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(set * w.points + j));
  return cfg;
}

/// An op fails on any invariant or flow-control violation, on a point that
/// delivered nothing, and on a saturated point of a workload defined below
/// saturation.
bool point_ok(const RunResult& r, bool below_saturation) {
  return r.invariant_violations == 0 && r.fc_violations == 0 &&
         r.delivered > 0 && !(below_saturation && r.saturated);
}

/// FNV-1a over every simulated scalar of result_fields(), point by point.
/// Not a metric: a speed-only change must leave it byte-identical.
class Digest {
 public:
  void add(const RunResult& r) {
    for (const ResultField& f : result_fields()) {
      if (f.cls != FieldClass::kSimulated) continue;
      const FieldValue v = f.get(r);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v.f64, sizeof bits);
      mix(static_cast<std::uint64_t>(v.type));
      mix(bits);
      mix(v.u64);
      mix(static_cast<std::uint64_t>(v.i64));
      mix(v.b ? 1 : 0);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct CellRun {
  SaturationResult res;
  double wall_s = 0.0;
  double speed = 1.0;  // host speed around the cell (see HostClock)
};

// ------------------------------------------------------------ statistics

struct Stats {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};

/// The p-quantile of sorted, non-empty `v`, interpolating linearly between
/// order statistics.
double quantile(const std::vector<double>& v, double p) {
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Stats stats(std::vector<double> v) {
  Stats s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  return s;
}

double median(const std::vector<double>& v) { return stats(v).median; }

/// Samples of one timed quantity: corrected to the reference host speed
/// (see HostClock) and as read off the wall clock.
struct Samples {
  std::vector<double> s;
  std::vector<double> raw;

  void add(double corrected, double wall) {
    s.push_back(corrected);
    raw.push_back(wall);
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::optional<Stats> dist;  // set for metrics that are a median of samples
  std::optional<double> raw;  // uncorrected median of a corrected timing
};

Metric timing(std::string name, const std::vector<double>& samples,
              std::string unit = "s") {
  const Stats s = stats(samples);
  return Metric{std::move(name), std::move(unit), s.median, s, std::nullopt};
}

Metric timing(std::string name, const Samples& samples,
              std::string unit = "s") {
  Metric m = timing(std::move(name), samples.s, std::move(unit));
  m.raw = median(samples.raw);
  return m;
}

Metric scalar(std::string name, double value, std::string unit) {
  return Metric{std::move(name), std::move(unit), value, std::nullopt,
                std::nullopt};
}

// ------------------------------------------------------------ host speed
//
// The boxes this benchmark runs on are shared, and their speed drifts with
// the other tenants' load: a fixed loop measured 37 ms in one minute and
// 63 ms a few minutes later on a 4-core VM, and medians of raw wall times
// over ten 20 s runs spread by 20-33%.  So every timed op of the untraced
// pass runs between two calls of a fixed reference kernel, and its time is
// reported as wall time x kReferenceKernelS / (mean of the two kernel
// times): seconds on a host that runs the kernel in kReferenceKernelS.
// The kernel's code lives here, so no change to the simulator moves it.
// Raw wall times are printed and recorded beside the corrected ones.

/// reference_kernel()'s time on the 4-core Xeon VM the README baseline was
/// taken on, when that box was quiet.
constexpr double kReferenceKernelS = 0.0063;

/// A small discrete-event loop, fixed code and input: 200k times, pop the
/// earliest of 4096 pending timestamps from a binary heap, update one word
/// of a 512 KB state array and push a successor.  Returns its wall time.
double reference_kernel() {
  thread_local std::vector<std::uint64_t> state(std::size_t{1} << 16);
  thread_local bool warm = false;
  if (!warm) {  // a thread's first run pays for faulting its memory in
    warm = true;
    reference_kernel();
  }
  std::fill(state.begin(), state.end(), 0);
  const auto t0 = Clock::now();
  const auto lcg = [](std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue;
  std::uint64_t x = 1;
  for (int i = 0; i < 4096; ++i) {
    x = lcg(x);
    queue.push(x >> 20);
  }
  for (int n = 0; n < 200000; ++n) {
    const std::uint64_t e = queue.top();
    queue.pop();
    std::uint64_t& s = state[(e * 2654435761u) & (state.size() - 1)];
    s += e;
    x = lcg(x);
    queue.push(e + ((x >> 40) & 1023) + (s & 7));
  }
  const std::uint64_t top = queue.top();
  __asm__ volatile("" : : "r"(top) : "memory");  // keeps the loop alive
  return since(t0);
}

/// One timed op: wall seconds and seconds at the reference host speed.
struct Lap {
  double raw = 0;
  double s = 0;
};

class HostClock {
 public:
  /// Runs op() between two reference-kernel runs (the closing run of one
  /// op opens the next).
  template <typename F>
  Lap time(F&& op) {
    if (!last_) last_ = reference_kernel();
    const double before = *last_;
    const auto t0 = Clock::now();
    op();
    Lap lap;
    lap.raw = since(t0);
    last_ = reference_kernel();
    const double kernel = (before + *last_) / 2;
    lap.s = lap.raw * kReferenceKernelS / kernel;
    speed_.push_back(kReferenceKernelS / kernel);
    return lap;
  }

  /// Host speed relative to the reference host, one sample per op.
  [[nodiscard]] const std::vector<double>& speed() const { return speed_; }

 private:
  std::optional<double> last_;
  std::vector<double> speed_;
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts the peak-RSS count from the current RSS (Linux 4.0 and later),
/// so that each set's peak can be read on its own.  Where that is refused,
/// the reads that follow are peaks since process start.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// What one pass reports.  `metrics` are the contract metrics, in
/// BENCHMARK.json order; `extra` are printed and recorded only.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> notes;  // human-only lines (checks, self times)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::optional<std::uint64_t> digest;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 42;
  std::optional<double> seconds;
  bool fast = false;
  std::string json;
  std::string trace;
};

/// Measuring budget of the untraced pass: --seconds, else the
/// BENCHMARK.json run length; --fast runs exactly the minimum of sets.
double budget(const Options& opt) {
  return opt.seconds.value_or(opt.fast ? 0.0 : 25.0);
}

// ------------------------------------------------------------ the grid

class Tracer;

/// Grid g's seed for cell c; every grid draws fresh seeds.
std::uint64_t cell_seed(std::uint64_t seed, int grid, int cell) {
  return derive_seed(seed, static_cast<std::uint64_t>(grid * 9 + cell));
}

/// One Fig. 7 grid: every (network, scheme) cell's find_saturation, across
/// kJobs pool workers; cell c runs scheme c % 3 on network c / 3.
std::vector<CellRun> run_grid(const Workload& w,
                              const std::vector<const Bed*>& beds,
                              std::uint64_t seed, int grid, Tracer* tr,
                              int parent);

/// Mean over the networks of |measured ITB-RR/UP-DOWN saturation gain ÷
/// paper gain − 1|, and whether ITB-RR beat UP/DOWN on every network.
std::pair<double, bool> paper_gain_err(const std::vector<CellRun>& cells) {
  double err = 0;
  bool itb_wins = true;
  const std::size_t nets = std::size(kFig7);
  for (std::size_t n = 0; n < nets; ++n) {
    const double updown = cells[3 * n].res.throughput;
    const double itb_rr = cells[3 * n + 2].res.throughput;
    const double gain = updown > 0 ? itb_rr / updown : 0.0;
    const double paper = kFig7[n].paper_itb_rr / kFig7[n].paper_updown;
    err += std::abs(gain / paper - 1.0);
    itb_wins = itb_wins && gain > 1.0;
  }
  return {err / static_cast<double>(nets), itb_wins};
}

/// Grid ops: each point, each cell (it must saturate within the ladder),
/// and a repeat of grid g's cell g % 9 first rung on the calling thread,
/// which must reproduce what the pool worker computed.
void check_grid(const Workload& w, const std::vector<const Bed*>& beds,
                std::uint64_t seed, int grid,
                const std::vector<CellRun>& cells, Outcome& out) {
  for (const CellRun& cell : cells) {
    for (const SweepPoint& p : cell.res.trace) {
      out.op(point_ok(p.result, false));
    }
    out.op(cell.res.saturated);
  }
  const int c = grid % static_cast<int>(cells.size());
  const SweepPoint& first = cells[static_cast<std::size_t>(c)].res.trace.front();
  const int schemes = static_cast<int>(w.schemes.size());
  const Bed& bed = *beds[static_cast<std::size_t>(c / schemes)];
  RunConfig cfg = w.cfg;
  cfg.seed = cell_seed(seed, grid, c);
  cfg.load_flits_per_ns_per_switch = first.load;
  const RunResult again =
      run_point(bed.tb, w.schemes[static_cast<std::size_t>(c % schemes)],
                bed.pattern, cfg);
  out.op(same_simulated_metrics(first.result, again));
}

// ------------------------------------------------------- untraced pass

Outcome run_points(const Workload& w, const Options& opt) {
  Outcome out;
  HostClock clock;
  Samples setup, first, rest, sweep;
  std::vector<double> rss;
  Digest digest;  // over the first set's points
  const double seconds = budget(opt);
  const int min_sets = opt.fast ? 2 : 3;
  const auto t0 = Clock::now();
  for (int set = 0; set < min_sets || since(t0) < seconds; ++set) {
    reset_peak_rss();
    Beds beds;
    const Lap s = clock.time([&] { beds = set_up(w); });
    setup.add(s.s, s.raw);
    const Bed& bed = *beds.front();
    const auto ws = std::make_unique<SimWorkspace>();
    RunResult first_result;
    Lap points;  // the set's P points together
    for (int j = 0; j < w.points; ++j) {
      const RunConfig cfg = point_config(w, opt.seed, set, j);
      RunResult r;
      const Lap p = clock.time([&] {
        r = run_point_in(*ws, bed.tb, w.schemes.front(), bed.pattern, cfg);
      });
      (j == 0 ? first : rest).add(p.s, p.raw);
      points.s += p.s;
      points.raw += p.raw;
      if (set == 0) digest.add(r);
      bool ok = point_ok(r, true);
      if (j == 0) first_result = r;
      if (j == w.points - 1) ok = ok && same_simulated_metrics(first_result, r);
      out.op(ok);
    }
    sweep.add(points.s, points.raw);
    rss.push_back(peak_rss_mb());
  }
  out.digest = digest.value();
  out.metrics = {timing("setup_s", setup), timing("first_point_s", first),
                 timing("point_s", rest), timing("sweep_s", sweep),
                 timing("peak_rss_mb", rss, "MB")};
  out.extra = {timing("host_speed", clock.speed(), "ratio"),
               scalar("sets", static_cast<double>(setup.s.size()), "count")};
  return out;
}

Outcome run_grids(const Workload& w, const Options& opt) {
  Outcome out;
  HostClock clock;
  Samples setup, first, per_point, sweep;
  std::vector<double> gain_err, speed, rss;
  std::vector<CellRun> reference;  // the first grid: digest and gains
  const double seconds = budget(opt);
  const int min_sets = opt.fast ? 2 : 3;
  const auto t0 = Clock::now();
  for (int set = 0; set < min_sets || since(t0) < seconds; ++set) {
    reset_peak_rss();
    Beds beds;
    const Lap s = clock.time([&] { beds = set_up(w); });
    setup.add(s.s, s.raw);
    std::vector<const Bed*> view;
    for (const auto& b : beds) view.push_back(b.get());
    const auto tg = Clock::now();
    std::vector<CellRun> cells =
        run_grid(w, view, opt.seed, set, nullptr, -1);
    const double grid_raw = since(tg);
    rss.push_back(peak_rss_mb());
    // Per grid: each cell's first rung and the mean point time over all its
    // cells, each cell corrected by its own host speed; the grid's wall time
    // corrected by the cells' work-weighted speed.
    double wall = 0, wall_raw = 0, points = 0;
    for (const CellRun& c : cells) {
      const double rung = c.res.trace.front().result.wall_ms / 1e3;
      first.add(rung * c.speed, rung);
      wall += c.wall_s * c.speed;
      wall_raw += c.wall_s;
      points += static_cast<double>(c.res.trace.size());
      speed.push_back(c.speed);
    }
    sweep.add(grid_raw * wall / wall_raw, grid_raw);
    per_point.add(wall / points, wall_raw / points);
    check_grid(w, view, opt.seed, set, cells, out);
    const auto [err, itb_wins] = paper_gain_err(cells);
    gain_err.push_back(err);
    out.correct = out.correct && itb_wins;
    if (set == 0) reference = std::move(cells);
  }
  Digest d;
  for (const CellRun& c : reference) {
    for (const SweepPoint& p : c.res.trace) d.add(p.result);
  }
  out.digest = d.value();
  out.metrics = {timing("setup_s", setup), timing("first_point_s", first),
                 timing("point_s", per_point), timing("sweep_s", sweep),
                 timing("peak_rss_mb", rss, "MB")};
  out.extra = {scalar("paper_gain_err", median(gain_err), "ratio"),
               timing("host_speed", speed, "ratio"),
               scalar("sets", static_cast<double>(setup.s.size()), "count")};
  for (std::size_t n = 0; n < std::size(kFig7); ++n) {
    out.extra.push_back(scalar(
        std::string("itb_rr_gain.") + kFig7[n].net,
        reference[3 * n + 2].res.throughput / reference[3 * n].res.throughput,
        "ratio"));
  }
  return out;
}

// --------------------------------------------------------------- tracing

/// In-memory span recorder.  Spans are appended by open() and finished by
/// close(); they are written out only when the pass ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int point = -1;  // traced point id, -1 outside points
    int tid = 0;
  };

  int open(const char* name, int parent, int point) {
    const double t = since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    const int tid = tids_.try_emplace(std::this_thread::get_id(),
                                      static_cast<int>(tids_.size()))
                        .first->second;
    spans_.push_back(Span{name, t, t, parent, point, tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Finishes span `id` and returns its duration in seconds.
  double close(int id) {
    const double t = since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = t;
    return s.end_s - s.start_s;
  }

  /// Only while no other thread records.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;  // guards spans_ and tids_ (grid cells record from workers)
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Runs f() inside a span.  Returns f's result, or the span's duration in
/// seconds when f returns nothing.
template <typename F>
decltype(auto) span(Tracer& tr, const char* name, int parent, int point,
                    F&& f) {
  const int id = tr.open(name, parent, point);
  if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
    f();
    return tr.close(id);
  } else {
    decltype(auto) result = f();
    tr.close(id);
    return result;
  }
}

/// Self time of every span: its duration minus the union of the intervals
/// its children cover.
std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (const int c : children[i]) {
      const Tracer::Span& k = spans[static_cast<std::size_t>(c)];
      cover.emplace_back(std::max(k.start_s, s.start_s),
                         std::min(k.end_s, s.end_s));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start_s;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

/// Subtree of `root` (root included) in the flat span list.
bool in_subtree(const std::vector<Tracer::Span>& spans, int i, int root) {
  for (; i >= 0; i = spans[static_cast<std::size_t>(i)].parent) {
    if (i == root) return true;
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string manifest_json(const Options& opt) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
  std::ostringstream o;
  o << "{\"git_sha\": \"" << ITB_SUITE_GIT_SHA << "\", \"build_type\": \""
    << ITB_SUITE_BUILD_TYPE << "\", \"compiler\": \""
    << json_escape(ITB_SUITE_COMPILER) << "\", \"host\": \""
    << json_escape(host) << "\", \"nproc\": "
    << std::thread::hardware_concurrency() << ", \"jobs\": " << kJobs
    << ", \"seed\": " << opt.seed << ", \"fast\": "
    << (opt.fast ? "true" : "false") << "}";
  return o.str();
}

bool write_chrome_trace(const std::string& path, const Tracer& tr,
                        const std::string& workload, const Options& opt) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
    << workload << "\", \"manifest\": " << manifest_json(opt)
    << "},\n\"traceEvents\": [\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"cat\": \"bench_suite\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
      << s.tid << ", \"ts\": " << num(s.start_s * 1e6)
      << ", \"dur\": " << num((s.end_s - s.start_s) * 1e6)
      << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
      << ", \"point\": " << s.point << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::vector<CellRun> run_grid(const Workload& w,
                              const std::vector<const Bed*>& beds,
                              std::uint64_t seed, int grid, Tracer* tr,
                              int parent) {
  const int schemes = static_cast<int>(w.schemes.size());
  const int cells = static_cast<int>(beds.size()) * schemes;
  return parallel_map<CellRun>(cells, kJobs, [&](int c) {
    const Bed& bed = *beds[static_cast<std::size_t>(c / schemes)];
    RunConfig cfg = w.cfg;
    cfg.seed = cell_seed(seed, grid, c);
    // Cells run on the pool workers, so each brackets itself with the
    // reference kernel on its own thread.
    const double before = reference_kernel();
    const int id =
        tr != nullptr ? tr->open("harness.find_saturation", parent, -1) : -1;
    const auto t0 = Clock::now();
    CellRun out;
    out.res = find_saturation(
        bed.tb, w.schemes[static_cast<std::size_t>(c % schemes)], bed.pattern,
        cfg, bench::start_load(w.nets[static_cast<std::size_t>(c / schemes)]),
        w.growth, w.rungs);
    out.wall_s = since(t0);
    if (tr != nullptr) tr->close(id);
    out.speed = 2 * kReferenceKernelS / (before + reference_kernel());
    return out;
  });
}

// ---------------------------------------------------------- traced pass

/// The generator and up*/down* root behind each bench::make_testbed network
/// the suite runs.  The traced pass times the generator and the Testbed
/// constructor as two layers, and make_testbed does both in one call; the
/// pass checks that the root it gets here is make_testbed's.
std::pair<Topology, SwitchId> generate(const std::string& net) {
  if (net == "torus") return {make_torus_2d(8, 8, 8), 0};
  if (net == "express") return {make_torus_2d_express(8, 8, 8), 0};
  if (net == "cplant") return {make_cplant(), 0};
  if (net == "dragonfly16") return {make_dragonfly(16, 8, 8), kAutoRoot};
  if (net == "hyperx32x32") return {make_hyperx({32, 32}, 8), kAutoRoot};
  throw std::invalid_argument("bench_suite: no generator for " + net);
}

struct TracedBed {
  Testbed tb;
  std::optional<RouteSet> updown;  // built by the direct layer calls
  std::optional<RouteSet> itb;

  [[nodiscard]] const RouteSet& routes(RoutingScheme s) const {
    return s == RoutingScheme::kUpDown ? *updown : *itb;
  }
};

/// What one traced point read, plus its layer times.
struct TracedPoint {
  double wall = 0, prepare = 0, warmup = 0, measure = 0;
  std::uint64_t delivered = 0, events = 0, peak_queue = 0, generated = 0;
  std::uint64_t violations = 0, fc_violations = 0;
  double accepted = 0, avg_latency_ns = 0, avg_itbs = 0;
};

/// One point driven through the same public calls, in the same order and
/// with the same arguments, as run_point_in (harness/runner.cpp): prepare,
/// generator + start, run_until(warmup), reset_window/reset_channel_stats,
/// run_until(end), then the reads.
TracedPoint traced_point(Tracer& tr, int point, SimWorkspace& ws,
                         const Testbed& tb, const RouteSet& routes,
                         RoutingScheme scheme,
                         const DestinationPattern& pattern,
                         const RunConfig& cfg) {
  TracedPoint p;
  const int root = tr.open("harness.point", -1, point);
  p.prepare = span(tr, "harness.prepare", root, point, [&] {
    ws.prepare(cfg.engine, tb.topo(), routes, cfg.params, policy_of(scheme),
               cfg.seed ^ 0x9e37u);
    ws.metrics().attach(ws.net());
  });
  Simulator& sim = ws.sim();
  Network& net = ws.net();
  MetricsCollector& metrics = ws.metrics();
  TrafficGenerator& gen = span(tr, "traffic.start", root, point,
                               [&]() -> TrafficGenerator& {
    TrafficConfig tcfg;
    tcfg.load_flits_per_ns_per_switch = cfg.load_flits_per_ns_per_switch;
    tcfg.payload_bytes = cfg.payload_bytes;
    tcfg.poisson = cfg.poisson;
    tcfg.seed = cfg.seed;
    TrafficGenerator& g = ws.generator(pattern, tcfg);
    g.start();
    return g;
  });
  p.warmup = span(tr, "sim.warmup", root, point,
                  [&] { sim.run_until(cfg.warmup); });
  span(tr, "metrics.reset_window", root, point, [&] {
    metrics.reset_window(sim.now());
    net.reset_channel_stats();
  });
  p.measure = span(tr, "sim.measure", root, point,
                   [&] { sim.run_until(cfg.warmup + cfg.measure); });
  span(tr, "harness.harvest", root, point, [&] {
    p.accepted = metrics.accepted_flits_per_ns_per_switch(sim.now());
    p.avg_latency_ns = metrics.avg_latency_ns();
    p.avg_itbs = metrics.avg_itbs_per_message();
    p.delivered = metrics.delivered();
    p.fc_violations = net.flow_control_violations();
    p.generated = gen.messages_generated();
    gen.stop();
    net.audit_invariants(/*quiescent=*/false);
    p.violations = net.invariants().total();
    p.events = sim.events_executed();
    p.peak_queue = sim.peak_queue_len();
  });
  p.wall = tr.close(root);
  return p;
}

/// Nanoseconds per RouteSet::alternatives + one RouteView, over 2^20 switch
/// pairs drawn with the workload's pattern and seed, timed in batches of 8
/// (clock reads cost about as much as a cached lookup).  Returns the
/// per-batch mean samples and a checksum of what the lookups read.
std::pair<std::vector<double>, std::uint64_t> lookup_ns(
    const std::vector<std::pair<const Topology*, const RouteSet*>>& tables,
    const std::vector<const DestinationPattern*>& patterns,
    std::uint64_t seed) {
  constexpr std::size_t kLookups = std::size_t{1} << 20;
  constexpr std::size_t kBatch = 8;
  const std::size_t per_table = kLookups / tables.size() / kBatch * kBatch;
  std::vector<double> samples;
  samples.reserve(kLookups / kBatch);
  std::uint64_t sink = 0;
  Rng rng(derive_seed(seed, 0x100c));
  std::vector<std::pair<SwitchId, SwitchId>> pairs(per_table);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const Topology& topo = *tables[t].first;
    const RouteSet& routes = *tables[t].second;
    const auto hosts = static_cast<std::uint64_t>(topo.num_hosts());
    for (auto& [s, d] : pairs) {
      const auto src = static_cast<HostId>(rng.next_below(hosts));
      const HostId dst = patterns[t]->pick(src, rng);
      s = topo.host(src).sw;
      d = topo.host(dst).sw;
    }
    for (std::size_t b = 0; b < per_table; b += kBatch) {
      const auto t0 = Clock::now();
      for (std::size_t i = b; i < b + kBatch; ++i) {
        const AltsView alts = routes.alternatives(pairs[i].first,
                                                  pairs[i].second);
        const RouteView v = alts[i % alts.size()];
        sink += static_cast<std::uint64_t>(v.total_switch_hops) +
                v.legs.back().ports.size();
      }
      samples.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
          static_cast<double>(kBatch));
    }
  }
  return {std::move(samples), sink};
}

Outcome run_traced(const Workload& w, const Options& opt,
                   const std::string& trace_path) {
  Outcome out;
  Tracer tr;
  const bool has_updown =
      std::find(w.schemes.begin(), w.schemes.end(), RoutingScheme::kUpDown) !=
      w.schemes.end();
  const bool has_itb = std::any_of(
      w.schemes.begin(), w.schemes.end(),
      [](RoutingScheme s) { return s != RoutingScheme::kUpDown; });
  std::map<std::string, std::vector<double>> per_iter;  // one value/iteration
  std::map<std::string, std::vector<double>> per_point;
  std::vector<double> grid_busy, grid_longest, grid_points;
  std::uint64_t checksum = 0;
  int iterations = 0;
  const double seconds = opt.seconds.value_or(0.0);
  const auto t0 = Clock::now();
  for (; iterations == 0 || since(t0) < seconds; ++iterations) {
    // 1. Set-up through the layer calls, one span per call.
    std::vector<std::unique_ptr<TracedBed>> beds;
    const int setup = tr.open("harness.setup", -1, -1);
    double topo_s = 0, updown_s = 0, simple_s = 0, build_ud = 0, build_itb = 0;
    for (const std::string& n : w.nets) {
      int id = tr.open("topo.generate", setup, -1);
      auto [topo, root] = generate(n);
      topo_s += tr.close(id);
      id = tr.open("route.updown", setup, -1);
      Testbed tb(std::move(topo), root);
      updown_s += tr.close(id);
      auto b = std::make_unique<TracedBed>(TracedBed{std::move(tb), {}, {}});
      const Testbed& t = b->tb;
      if (has_updown) {
        id = tr.open("route.simple_routes", setup, -1);
        const SimpleRoutes sr(t.topo(), t.updown());
        simple_s += tr.close(id);
        id = tr.open("core.build.updown", setup, -1);
        b->updown.emplace(build_updown_routes(t.topo(), sr, kJobs));
        build_ud += tr.close(id);
      }
      if (has_itb) {
        id = tr.open("core.build.itb", setup, -1);
        b->itb.emplace(build_itb_routes(t.topo(), t.updown(), {}, kJobs));
        build_itb += tr.close(id);
      }
      beds.push_back(std::move(b));
    }
    tr.close(setup);
    double table_bytes = 0;
    for (const auto& b : beds) {
      if (b->updown) table_bytes += static_cast<double>(b->updown->table_bytes());
      if (b->itb) table_bytes += static_cast<double>(b->itb->table_bytes());
    }
    per_iter["topo.generate_s"].push_back(topo_s);
    per_iter["route.updown_s"].push_back(updown_s);
    per_iter["core.build_s"].push_back(build_ud + build_itb);
    if (has_updown) {
      per_iter["route.simple_routes_s"].push_back(simple_s);
      per_iter["core.build_s.updown"].push_back(build_ud);
    }
    if (has_itb) per_iter["core.build_s.itb"].push_back(build_itb);
    per_iter["core.table_mb"].push_back(table_bytes / 1e6);

    // 2. The end-to-end set-up the untraced twins and the grid run on (its
    // own root span, not a layer).  Its roots must be the traced set-up's.
    Beds twins;
    span(tr, "twin.setup", -1, -1, [&] { twins = set_up(w); });
    for (std::size_t i = 0; i < beds.size(); ++i) {
      out.correct = out.correct && beds[i]->tb.updown().root() ==
                                       twins[i]->tb.updown().root();
    }

    // 3. Lookups over every table the workload runs.
    std::vector<std::pair<const Topology*, const RouteSet*>> tables;
    std::vector<const DestinationPattern*> patterns;
    for (std::size_t i = 0; i < beds.size(); ++i) {
      const TracedBed& b = *beds[i];
      for (const RouteSet* rs : {b.updown ? &*b.updown : nullptr,
                                 b.itb ? &*b.itb : nullptr}) {
        if (rs == nullptr) continue;
        tables.emplace_back(&b.tb.topo(), rs);
        patterns.push_back(&twins[i]->pattern);
      }
    }
    auto [lookups, sink] = span(tr, "core.lookup", -1, -1, [&] {
      return lookup_ns(tables, patterns, opt.seed);
    });
    checksum = sink;
    std::sort(lookups.begin(), lookups.end());
    per_iter["core.lookup_ns.p50"].push_back(quantile(lookups, 0.50));
    per_iter["core.lookup_ns.p99"].push_back(quantile(lookups, 0.99));

    // 4. Two traced points (fresh workspace, then reused) and their
    // untraced twins.  fig7_grid traces its first ITB-RR rung on the torus.
    const TracedBed& tb0 = *beds.front();
    const Bed& twin0 = *twins.front();
    const RoutingScheme scheme = w.grid ? RoutingScheme::kItbRr : w.schemes.front();
    double traced_wall = 0, twin_wall = 0;
    const auto ws = std::make_unique<SimWorkspace>();
    const auto twin_ws = std::make_unique<SimWorkspace>();
    for (int j = 0; j < 2; ++j) {
      RunConfig cfg = point_config(w, opt.seed, 0, j);
      if (w.grid) {
        cfg.load_flits_per_ns_per_switch = bench::start_load(w.nets.front());
      }
      const int id = iterations * 2 + j;
      const TracedPoint p = traced_point(tr, id, *ws, tb0.tb,
                                         tb0.routes(scheme), scheme,
                                         twin0.pattern, cfg);
      const auto tt = Clock::now();
      const RunResult twin =
          run_point_in(*twin_ws, twin0.tb, scheme, twin0.pattern, cfg);
      twin_wall += since(tt);
      traced_wall += p.wall;
      const bool same = p.delivered == twin.delivered &&
                        p.events == twin.events &&
                        p.accepted == twin.accepted &&
                        p.avg_latency_ns == twin.avg_latency_ns;
      out.op(point_ok(twin, !w.grid));
      out.op(same && p.violations == 0 && p.fc_violations == 0);
      per_point[j == 0 ? "harness.prepare_cold_s" : "harness.prepare_s"]
          .push_back(p.prepare);
      per_point["sim.warmup_s"].push_back(p.warmup);
      per_point["sim.measure_s"].push_back(p.measure);
      per_point["sim.loop_events_per_s"].push_back(
          static_cast<double>(p.events) / (p.warmup + p.measure));
      per_point["sim.events"].push_back(static_cast<double>(p.events));
      per_point["sim.peak_queue_len"].push_back(
          static_cast<double>(p.peak_queue));
      per_point["net.events_per_msg"].push_back(
          static_cast<double>(p.events) / static_cast<double>(p.delivered));
      per_point["net.itbs_per_msg"].push_back(p.avg_itbs);
      per_point["traffic.msgs_generated"].push_back(
          static_cast<double>(p.generated));
      per_point["harness.other_s"].push_back(p.wall - p.prepare - p.warmup -
                                             p.measure);
    }
    per_iter["obs.trace_overhead_frac"].push_back(traced_wall / twin_wall - 1);

    // 5. fig7_grid: one grid with a span per cell.
    if (w.grid) {
      std::vector<const Bed*> view;
      for (const auto& b : twins) view.push_back(b.get());
      const int g = tr.open("harness.grid", -1, -1);
      const std::vector<CellRun> cells =
          run_grid(w, view, opt.seed, iterations, &tr, g);
      const double grid_s = tr.close(g);
      check_grid(w, view, opt.seed, iterations, cells, out);
      double busy = 0, longest = 0, points = 0;
      for (const CellRun& c : cells) {
        busy += c.wall_s;
        longest = std::max(longest, c.wall_s);
        points += static_cast<double>(c.res.trace.size());
      }
      grid_busy.push_back(busy / (kJobs * grid_s));
      grid_longest.push_back(longest);
      grid_points.push_back(points);
    }
  }
  if (!write_chrome_trace(trace_path, tr, w.name, opt)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", trace_path.c_str());
    out.correct = false;
  }

  const auto iter = [&](const char* name, const char* unit) {
    return timing(name, per_iter[name], unit);
  };
  const auto point = [&](const char* name, const char* unit) {
    return timing(name, per_point[name], unit);
  };
  out.metrics = {iter("topo.generate_s", "s"),
                 iter("route.updown_s", "s"),
                 iter("core.build_s", "s"),
                 iter("core.lookup_ns.p50", "ns"),
                 iter("core.lookup_ns.p99", "ns"),
                 point("harness.prepare_cold_s", "s"),
                 point("harness.prepare_s", "s"),
                 point("sim.warmup_s", "s"),
                 point("sim.measure_s", "s"),
                 point("sim.loop_events_per_s", "1/s"),
                 point("sim.events", "count"),
                 point("sim.peak_queue_len", "count"),
                 point("net.events_per_msg", "ratio"),
                 point("harness.other_s", "s"),
                 iter("obs.trace_overhead_frac", "ratio")};
  if (has_updown) {
    out.extra.push_back(iter("route.simple_routes_s", "s"));
    out.extra.push_back(iter("core.build_s.updown", "s"));
  }
  if (has_itb) out.extra.push_back(iter("core.build_s.itb", "s"));
  out.extra.push_back(iter("core.table_mb", "MB"));
  out.extra.push_back(point("net.itbs_per_msg", "ratio"));
  out.extra.push_back(point("traffic.msgs_generated", "count"));
  if (w.grid) {
    out.extra.push_back(timing("harness.pool_busy_frac", grid_busy, "ratio"));
    out.extra.push_back(timing("harness.longest_cell_s", grid_longest));
    out.extra.push_back(timing("harness.sweep_points", grid_points, "count"));
  }
  out.extra.push_back(
      scalar("iterations", static_cast<double>(iterations), "count"));

  // Per-layer self time, averaged per iteration, and the closure check:
  // the self times inside each traced point add up to its wall time.
  const auto& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::pair<double, int>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [total, calls] = by_name[spans[i].name];
    total += self[i];
    ++calls;
  }
  for (const auto& [name, agg] : by_name) {
    char line[160];
    std::snprintf(line, sizeof line, "self %-24s %.6f s/iteration  calls=%d",
                  name.c_str(), agg.first / iterations, agg.second);
    out.notes.emplace_back(line);
  }
  double closure_worst = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "harness.point") continue;
    double sum = 0;
    for (std::size_t k = i; k < spans.size(); ++k) {
      if (in_subtree(spans, static_cast<int>(k), static_cast<int>(i))) {
        sum += self[k];
      }
    }
    const double wall = spans[i].end_s - spans[i].start_s;
    closure_worst = std::max(closure_worst, std::abs(sum / wall - 1));
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "check layer self times + harness.other_s vs traced point "
                "wall: worst |diff| %.3g%% (limit 5%%)",
                closure_worst * 100);
  out.notes.emplace_back(line);
  out.correct = out.correct && closure_worst <= 0.05;
  std::snprintf(line, sizeof line, "core.lookup checksum %llu",
                static_cast<unsigned long long>(checksum));
  out.notes.emplace_back(line);
  return out;
}

// ------------------------------------------------------------- reporting

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.6g %s", workload.c_str(), m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.dist) {
    std::printf(" q1=%.6g q3=%.6g n=%zu", m.dist->q1, m.dist->q3, m.dist->n);
  }
  if (m.raw) std::printf(" raw=%.6g", *m.raw);
  std::printf("\n");
}

std::string metrics_json(const std::vector<Metric>& metrics, bool full) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
      << num(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (full && m.dist) {
      o << ", \"q1\": " << num(m.dist->q1) << ", \"q3\": " << num(m.dist->q3)
        << ", \"n\": " << m.dist->n;
    }
    if (full && m.raw) o << ", \"raw\": " << num(*m.raw);
    o << "}";
  }
  o << "}";
  return o.str();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void report(const Workload& w, const Options& opt, const Outcome& out,
            bool traced) {
  std::printf("# %s %s pass, manifest %s\n", w.name.c_str(),
              traced ? "traced" : "untraced", manifest_json(opt).c_str());
  for (const Metric& m : out.metrics) print_metric(w.name, m);
  for (const Metric& m : out.extra) print_metric(w.name, m);
  const double failed_frac = static_cast<double>(out.failed) /
                             static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  std::printf("%s failed_frac %.6g ratio (%llu of %llu ops)\n", w.name.c_str(),
              failed_frac, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (out.digest) {
    std::printf("%s sim_digest %s\n", w.name.c_str(), hex(*out.digest).c_str());
  }
  for (const std::string& n : out.notes) {
    std::printf("%s %s\n", w.name.c_str(), n.c_str());
  }
  const bool correct = out.correct && out.failed == 0;
  if (!opt.json.empty()) {
    std::ofstream f(opt.json, std::ios::app);
    std::vector<Metric> all = out.metrics;
    all.insert(all.end(), out.extra.begin(), out.extra.end());
    all.push_back(scalar("failed_frac", failed_frac, "ratio"));
    f << "{\"workload\": \"" << w.name << "\", \"pass\": \""
      << (traced ? "traced" : "untraced") << "\", \"manifest\": "
      << manifest_json(opt) << ", \"sim_digest\": \""
      << (out.digest ? hex(*out.digest) : "") << "\", \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << out.attempted
      << ", \"failed\": " << out.failed
      << ", \"metrics\": " << metrics_json(all, true) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(out.metrics, false).c_str());
  std::fflush(stdout);
}

/// --workload all: one cold child process per workload, run in turn.
int run_all(const Options& opt, const std::vector<std::string>& passthrough) {
  if (!opt.json.empty()) {
    const std::ofstream truncate(opt.json, std::ios::trunc);
  }
  int status_all = 0;
  for (const char* name : kWorkloadNames) {
    std::vector<std::string> args = {"bench_suite", "--workload", name};
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    if (!opt.trace.empty()) {
      // trace.json -> trace.<workload>.json
      std::string path = opt.trace;
      const std::size_t dot = path.rfind('.');
      const std::string ext =
          dot == std::string::npos || path.find('/', dot) != std::string::npos
              ? ""
              : path.substr(dot);
      path = path.substr(0, path.size() - ext.size()) + "." + name + ext;
      args.insert(args.end(), {"--trace", path});
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) status_all = 1;
  }
  return status_all;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_suite [--workload NAME|all] [--seed N] "
               "[--seconds S] [--fast] [--json FILE] [--trace FILE]\n"
               "workloads: torus_itbrr dragonfly16_itbrr "
               "hyperx32x32_updown fig7_grid\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> passthrough;  // forwarded to --workload all children
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--fast") {
      opt.fast = true;
      passthrough.push_back(a);
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
      passthrough.insert(passthrough.end(), {a, argv[i]});
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(*opt.seconds >= 0 && *opt.seconds <= 600)) {
        return usage();
      }
      passthrough.insert(passthrough.end(), {a, argv[i]});
    } else if (a == "--json" && has_value) {
      opt.json = argv[++i];
      passthrough.insert(passthrough.end(), {a, argv[i]});
    } else if (a == "--trace" && has_value) {
      opt.trace = argv[++i];
    } else {
      return usage();
    }
  }
  // Every pool the suite touches (table builds, grid workers, and any lazy
  // Testbed::routes fan-out) uses kJobs workers.
  setenv("ITB_BENCH_JOBS", std::to_string(kJobs).c_str(), 1);

  if (opt.workload == "all") return run_all(opt, passthrough);
  const std::optional<Workload> w = find_workload(opt.workload, opt.fast);
  if (!w) return usage();
  const bool traced = !opt.trace.empty();
  const Outcome out = traced        ? run_traced(*w, opt, opt.trace)
                      : w->grid     ? run_grids(*w, opt)
                                    : run_points(*w, opt);
  report(*w, opt, out, traced);
  return out.correct && out.failed == 0 ? 0 : 1;
}
