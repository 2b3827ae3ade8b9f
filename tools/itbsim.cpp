// itbsim — command-line driver for the simulator.
//
// Runs a single point or a load sweep on any built-in or file-described
// topology, any routing scheme and traffic pattern, and emits a table
// and/or CSV.  Examples:
//
//   itbsim --topology torus --scheme ITB-RR --load 0.02
//   itbsim --topology cplant --scheme UP/DOWN --pattern hotspot:37:0.05
//          --sweep 0.01:0.12:10 --csv out.csv     (one command line)
//   itbsim --topology file:mynet.topo --scheme ITB-SP --pattern local:3
//   itbsim --topology irregular:16:4:2:99 --list-topology
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/route_io.hpp"
#include "harness/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/samplers.hpp"
#include "sim/workspace.hpp"
#include "sim/pool.hpp"
#include "harness/replicate.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/testbed.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "topo/generators.hpp"
#include "topo/io.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace itb;

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --topology T     torus | express | cplant |\n"
               "                   hyperx:<S1>x..x<SL>:<hosts> |\n"
               "                   dragonfly:<a>:<p>:<h>[:palmtree|absolute] |\n"
               "                   fullmesh:<switches>:<hosts> |\n"
               "                   irregular:<switches>:<hosts>:<ports>:<seed> |\n"
               "                   file:<path>   (default torus)\n"
               "  --scheme S       UP/DOWN | ITB-SP | ITB-RR | ITB-RND | "
               "ITB-ADAPT |\n"
               "                   MIN (structured minimal baseline; hyperx/\n"
               "                   dragonfly/fullmesh only)  (default ITB-RR)\n"
               "  --root R         up*/down* root switch id, or 'auto' for the\n"
               "                   double-sweep pseudo-center (default 0)\n"
               "  --pattern P      uniform | bitrev | hotspot:<host>:<frac> | "
               "local:<radius> (default uniform)\n"
               "  --load X         offered load, flits/ns/switch (default "
               "0.01)\n"
               "  --sweep LO:HI:N  geometric load sweep of N points, 1 to\n"
               "                   10000, instead of one point\n"
               "  --find-saturation  ladder search for the saturation point\n"
               "  --payload N      message payload bytes, 1 to 16777216\n"
               "                   (default 512)\n"
               "  --warmup-us N    warm-up time (default 150)\n"
               "  --measure-us N   measurement window (default 400)\n"
               "  --seed N         RNG seed (default 42)\n"
               "  --chunk N        engine chunk size in flits, 1..8 (default "
               "8)\n"
               "  --poisson        Poisson instead of constant-rate arrivals\n"
               "  --csv PATH       append results as CSV\n"
               "  --json           print results as JSON instead of a table\n"
               "  --replications N single-point mode: N seed replications\n"
               "                   (1 to 10000) with a 95%% CI\n"
               "  --jobs N         worker threads for sweeps/replications,\n"
               "                   1 to 1024 (also ITB_BENCH_JOBS; default:\n"
               "                   hardware concurrency; results are\n"
               "                   identical for every N)\n"
               "  --list-topology  print the topology description and exit\n"
               "  --dump-routes N  print routes whose first alternative uses\n"
               "                   >= N in-transit hosts, then exit\n"
               " telemetry (single-point mode):\n"
               "  --trace PATH     record a packet-lifecycle trace and write\n"
               "                   Chrome/Perfetto trace-event JSON (load it\n"
               "                   at ui.perfetto.dev or chrome://tracing)\n"
               "  --trace-capacity N  trace ring size in records, 1 to\n"
               "                   16777216 (default 65536; oldest records\n"
               "                   drop on overflow)\n"
               "  --samples PATH   append windowed time-series samples as CSV\n"
               "  --sample-us N    sample window width (default measure/20)\n"
               "  --heatmap PATH   write a congestion heatmap CSV: one row\n"
               "                   per (metric, id, window) — link_util by\n"
               "                   channel, itb_pool by host; implies\n"
               "                   windowed sampling\n",
               argv0);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = s.find(sep, start);
    if (at == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, at - start));
    start = at + 1;
  }
}

/// Largest microsecond count whose picosecond value fits in TimePs.
constexpr long long kMaxUs = kTimeNever / us(1);
/// Largest trace ring: 16 Mi records of at most 32 bytes each.
constexpr long long kMaxTraceCapacity = 1LL << 24;
/// Most points in one --sweep and most --replications: each is a full
/// simulation whose result is held in memory until the end.
constexpr long long kMaxRuns = 10000;
/// Offered loads (--load, --sweep) are positive and finite.
constexpr double kMinLoad = std::numeric_limits<double>::min();
constexpr double kMaxLoad = std::numeric_limits<double>::max();

/// Parse a whole decimal integer in [lo, hi].  Anything else (a value out
/// of range, trailing junk) throws std::out_of_range or
/// std::invalid_argument, which the option loop reports as "bad value".
long long parse_int_in(const std::string& s, long long lo, long long hi) {
  std::size_t end = 0;
  const long long v = std::stoll(s, &end);
  if (end != s.size()) throw std::invalid_argument(s);
  if (v < lo || v > hi) throw std::out_of_range(s);
  return v;
}

/// Parse a whole unsigned decimal integer (a sign, which std::stoull would
/// wrap, is junk), with the same errors as parse_int_in.
unsigned long long parse_u64(const std::string& s) {
  if (s.empty() || s[0] < '0' || s[0] > '9') throw std::invalid_argument(s);
  std::size_t end = 0;
  const unsigned long long v = std::stoull(s, &end);
  if (end != s.size()) throw std::invalid_argument(s);
  return v;
}

/// Parse a whole decimal number in [lo, hi] (NaN is out of every range),
/// with the same errors as parse_int_in.
double parse_double_in(const std::string& s, double lo, double hi) {
  std::size_t end = 0;
  const double v = std::stod(s, &end);
  if (end != s.size()) throw std::invalid_argument(s);
  if (!(v >= lo && v <= hi)) throw std::out_of_range(s);
  return v;
}

/// A whole number in [lo, hi] embedded in an option's spec (`--topology
/// hyperx:4x4:2`, `--pattern local:3`).  A malformed one exits with "bad
/// value for `flag`"; finer range checks stay with the constructor it
/// feeds, whose message names the field.
long long spec_int(const std::string& s, const char* flag, const char* argv0,
                   long long lo = INT_MIN, long long hi = INT_MAX) {
  try {
    return parse_int_in(s, lo, hi);
  } catch (const std::logic_error&) {
    usage(argv0, std::string("bad value for ") + flag);
  }
}

Topology make_topology(const std::string& spec, const char* argv0) {
  if (spec == "torus") return make_torus_2d(8, 8, 8);
  if (spec == "express") return make_torus_2d_express(8, 8, 8);
  if (spec == "cplant") return make_cplant();
  if (spec.rfind("file:", 0) == 0) return load_topology(spec.substr(5));
  if (spec.rfind("hyperx:", 0) == 0) {
    const auto parts = split(spec.substr(7), ':');
    if (parts.size() != 2) usage(argv0, "hyperx wants hyperx:<S1>x..x<SL>:<hosts>");
    std::vector<int> dims;
    for (const std::string& d : split(parts[0], 'x')) {
      dims.push_back(spec_int(d, "--topology", argv0));
    }
    return make_hyperx(dims, spec_int(parts[1], "--topology", argv0));
  }
  if (spec.rfind("dragonfly:", 0) == 0) {
    const auto parts = split(spec.substr(10), ':');
    if (parts.size() != 3 && parts.size() != 4) {
      usage(argv0, "dragonfly wants dragonfly:<a>:<p>:<h>[:palmtree|absolute]");
    }
    DragonflyArrangement arr = DragonflyArrangement::kPalmtree;
    if (parts.size() == 4) {
      if (parts[3] == "absolute") arr = DragonflyArrangement::kAbsolute;
      else if (parts[3] != "palmtree") usage(argv0, "unknown dragonfly arrangement '" + parts[3] + "'");
    }
    return make_dragonfly(spec_int(parts[0], "--topology", argv0),
                          spec_int(parts[1], "--topology", argv0),
                          spec_int(parts[2], "--topology", argv0), arr);
  }
  if (spec.rfind("fullmesh:", 0) == 0) {
    const auto parts = split(spec.substr(9), ':');
    if (parts.size() != 2) usage(argv0, "fullmesh wants fullmesh:<switches>:<hosts>");
    return make_full_mesh(spec_int(parts[0], "--topology", argv0),
                          spec_int(parts[1], "--topology", argv0));
  }
  if (spec.rfind("irregular:", 0) == 0) {
    const auto parts = split(spec.substr(10), ':');
    if (parts.size() != 4) {
      usage(argv0, "irregular wants irregular:<sw>:<hosts>:<ports>:<seed>");
    }
    Rng rng(static_cast<std::uint64_t>(
        spec_int(parts[3], "--topology", argv0, 0, LLONG_MAX)));
    return make_irregular(spec_int(parts[0], "--topology", argv0),
                          spec_int(parts[1], "--topology", argv0),
                          spec_int(parts[2], "--topology", argv0), rng);
  }
  usage(argv0, "unknown topology '" + spec + "'");
}

std::unique_ptr<DestinationPattern> make_pattern(const std::string& spec,
                                                 const Topology& topo,
                                                 const char* argv0) {
  if (spec == "uniform") {
    return std::make_unique<UniformPattern>(topo.num_hosts());
  }
  if (spec == "bitrev") {
    return std::make_unique<BitReversalPattern>(topo.num_hosts());
  }
  if (spec.rfind("hotspot:", 0) == 0) {
    const auto parts = split(spec.substr(8), ':');
    if (parts.size() != 2) usage(argv0, "hotspot wants hotspot:<host>:<frac>");
    double frac = 0;
    try {
      frac = parse_double_in(parts[1], 0.0, 1.0);
    } catch (const std::logic_error&) {
      usage(argv0, "bad value for --pattern");
    }
    return std::make_unique<HotspotPattern>(
        topo.num_hosts(), spec_int(parts[0], "--pattern", argv0), frac);
  }
  if (spec.rfind("local:", 0) == 0) {
    return std::make_unique<LocalPattern>(
        topo, spec_int(spec.substr(6), "--pattern", argv0));
  }
  usage(argv0, "unknown pattern '" + spec + "'");
}

/// `--sweep LO:HI:N`: N (1 to kMaxRuns) geometric load points from LO to
/// HI, both positive.
std::vector<double> parse_sweep(const std::string& spec, const char* argv0) {
  const auto parts = split(spec, ':');
  if (parts.size() != 3) usage(argv0, "--sweep wants LO:HI:N");
  return geometric_loads(parse_double_in(parts[0], kMinLoad, kMaxLoad),
                         parse_double_in(parts[1], kMinLoad, kMaxLoad),
                         static_cast<int>(parse_int_in(parts[2], 1, kMaxRuns)));
}

std::optional<RoutingScheme> parse_scheme(const std::string& name) {
  for (const RoutingScheme s :
       {RoutingScheme::kUpDown, RoutingScheme::kItbSp, RoutingScheme::kItbRr,
        RoutingScheme::kItbRnd, RoutingScheme::kItbAdapt,
        RoutingScheme::kMinimal}) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_spec = "torus";
  SwitchId root = 0;
  std::string scheme_name = "ITB-RR";
  std::string pattern_spec = "uniform";
  std::string csv;
  double load = 0.01;
  std::optional<std::vector<double>> sweep;
  bool find_sat = false;
  bool list_topology = false;
  bool as_json = false;
  int replications = 1;
  int jobs = default_jobs();
  std::optional<int> dump_routes_min;
  std::string trace_path;
  std::string samples_path;
  std::string heatmap_path;
  long long sample_us = 0;  // 0: default window (measure / 20)
  RunConfig cfg;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--topology") topo_spec = need_value(i);
      else if (arg == "--root") {
        const std::string v = need_value(i);
        root = v == "auto" ? kAutoRoot
                           : static_cast<SwitchId>(parse_int_in(v, 0, INT_MAX));
      }
      else if (arg == "--scheme") scheme_name = need_value(i);
      else if (arg == "--pattern") pattern_spec = need_value(i);
      else if (arg == "--load")
        load = parse_double_in(need_value(i), kMinLoad, kMaxLoad);
      else if (arg == "--sweep") sweep = parse_sweep(need_value(i), argv[0]);
      else if (arg == "--find-saturation") find_sat = true;
      else if (arg == "--payload")
        cfg.payload_bytes = static_cast<int>(
            parse_int_in(need_value(i), 1, kMaxPayloadBytes));
      else if (arg == "--warmup-us")
        cfg.warmup = us(parse_int_in(need_value(i), 0, kMaxUs));
      else if (arg == "--measure-us")
        cfg.measure = us(parse_int_in(need_value(i), 0, kMaxUs));
      else if (arg == "--seed") cfg.seed = parse_u64(need_value(i));
      else if (arg == "--chunk")
        cfg.params.chunk_flits =
            static_cast<int>(parse_int_in(need_value(i), 1, 8));
      else if (arg == "--poisson") cfg.poisson = true;
      else if (arg == "--csv") csv = need_value(i);
      else if (arg == "--json") as_json = true;
      else if (arg == "--replications")
        replications = static_cast<int>(parse_int_in(need_value(i), 0, kMaxRuns));
      else if (arg == "--jobs")
        jobs = static_cast<int>(parse_int_in(need_value(i), 0, kMaxJobs));
      else if (arg == "--list-topology") list_topology = true;
      else if (arg == "--dump-routes")
        dump_routes_min =
            static_cast<int>(parse_int_in(need_value(i), 0, INT_MAX));
      else if (arg == "--trace") trace_path = need_value(i);
      else if (arg == "--trace-capacity")
        cfg.trace_capacity = static_cast<std::size_t>(
            parse_int_in(need_value(i), 1, kMaxTraceCapacity));
      else if (arg == "--samples") samples_path = need_value(i);
      else if (arg == "--heatmap") heatmap_path = need_value(i);
      else if (arg == "--sample-us")
        sample_us = parse_int_in(need_value(i), 1, kMaxUs);
      else if (arg == "--help" || arg == "-h") usage(argv[0]);
      else usage(argv[0], "unknown option '" + arg + "'");
    } catch (const std::invalid_argument&) {
      usage(argv[0], "bad value for " + arg);
    } catch (const std::out_of_range&) {
      usage(argv[0], "bad value for " + arg);
    }
  }
  if (jobs < 1) usage(argv[0], "--jobs must be >= 1");
  if (replications < 1) usage(argv[0], "--replications must be >= 1");

  try {
    Topology topo = make_topology(topo_spec, argv[0]);
    if (list_topology) {
      std::fputs(serialize_topology(topo).c_str(), stdout);
      return 0;
    }
    const auto scheme = parse_scheme(scheme_name);
    if (!scheme) usage(argv[0], "unknown scheme '" + scheme_name + "'");
    if (root != kAutoRoot && root >= topo.num_switches()) {
      usage(argv[0], "--root out of range for this topology");
    }
    Testbed tb(std::move(topo), root);
    if (dump_routes_min) {
      const RouteSet& rs = tb.routes(*scheme);
      std::printf("# %s\n", summarize_route_set(rs).c_str());
      std::ostringstream os;
      dump_routes(os, rs, *dump_routes_min);
      std::fputs(os.str().c_str(), stdout);
      return 0;
    }
    const auto pattern = make_pattern(pattern_spec, tb.topo(), argv[0]);

    if (!as_json) {
      std::printf("# %s | %s | %s | payload %dB | seed %llu\n",
                  tb.topo().name().c_str(), scheme_name.c_str(),
                  pattern_spec.c_str(), cfg.payload_bytes,
                  static_cast<unsigned long long>(cfg.seed));
    }

    if (find_sat) {
      const auto sat =
          find_saturation(tb, *scheme, *pattern, cfg, load, 1.25, 20);
      if (as_json) {
        std::printf("%s\n",
                    series_to_json(tb.topo().name() + "/" + pattern_spec,
                                   scheme_name, sat.trace)
                        .c_str());
      } else {
        print_series(std::cout, tb.topo().name(), scheme_name, sat.trace);
        std::printf("saturation throughput: %.4f flits/ns/switch\n",
                    sat.throughput);
      }
      append_series_csv(csv, tb.topo().name() + "/" + pattern_spec,
                        scheme_name, sat.trace);
    } else if (sweep) {
      const auto series = sweep_loads(tb, *scheme, *pattern, cfg, *sweep, jobs);
      if (as_json) {
        std::printf("%s\n",
                    series_to_json(tb.topo().name() + "/" + pattern_spec,
                                   scheme_name, series)
                        .c_str());
      } else {
        print_series(std::cout, tb.topo().name(), scheme_name, series);
      }
      append_series_csv(csv, tb.topo().name() + "/" + pattern_spec,
                        scheme_name, series);
    } else if (replications > 1) {
      cfg.load_flits_per_ns_per_switch = load;
      const ReplicatedResult rep =
          run_replicated(tb, *scheme, *pattern, cfg, replications, jobs);
      if (as_json) {
        JsonWriter w;
        w.begin_object();
        w.key("replications").value(replications);
        w.key("accepted_mean").value(rep.accepted.mean());
        w.key("accepted_ci95").value(rep.accepted_ci95());
        w.key("latency_mean_ns").value(rep.latency_ns.mean());
        w.key("latency_ci95_ns").value(rep.latency_ci95_ns());
        w.key("saturated_count").value(std::int64_t{rep.saturated_count});
        w.end_object();
        std::printf("%s\n", w.str().c_str());
      } else {
        std::printf("accepted: %.4f +- %.4f flits/ns/switch   latency: "
                    "%.1f +- %.1f ns   (%d replications, %d saturated)\n",
                    rep.accepted.mean(), rep.accepted_ci95(),
                    rep.latency_ns.mean(), rep.latency_ci95_ns(),
                    replications, rep.saturated_count);
      }
    } else {
      cfg.load_flits_per_ns_per_switch = load;
      cfg.trace = !trace_path.empty();
      if (!samples_path.empty() || !heatmap_path.empty() || sample_us > 0) {
        cfg.sample_period =
            sample_us > 0 ? us(sample_us) : cfg.measure / 20;
        if (cfg.sample_period <= 0) cfg.sample_period = cfg.measure;
      }
      const RunResult r = run_point(tb, *scheme, *pattern, cfg);
      std::vector<SweepPoint> one{{load, r}};
      if (as_json) {
        std::printf("%s\n", run_result_to_json(r).c_str());
      } else {
        print_series(std::cout, tb.topo().name(), scheme_name, one);
      }
      append_series_csv(csv, tb.topo().name() + "/" + pattern_spec,
                        scheme_name, one);
      // run_point left the calling thread's workspace prepared for this
      // point, so its network still carries the channel labels the
      // exporter needs.
      const Network& net = this_thread_workspace().net();
      if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        os << trace_to_chrome_json(r.trace, net, r.trace_dropped);
        if (!os) throw std::runtime_error("cannot write " + trace_path);
        std::fprintf(stderr,
                     "trace: %llu records (%llu dropped) -> %s\n",
                     static_cast<unsigned long long>(r.trace_records),
                     static_cast<unsigned long long>(r.trace_dropped),
                     trace_path.c_str());
      }
      if (!samples_path.empty()) {
        append_samples_csv(samples_path,
                           tb.topo().name() + "/" + pattern_spec, scheme_name,
                           r.samples);
      }
      if (!heatmap_path.empty()) {
        write_heatmap_csv(heatmap_path, r.samples);
        std::fprintf(stderr, "heatmap: %zu windows -> %s\n",
                     r.samples.size(), heatmap_path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "itbsim: %s\n", e.what());
    return 1;
  }
  return 0;
}
