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
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
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
               "  --sweep LO:HI:N  geometric load sweep instead of one point\n"
               "  --find-saturation  ladder search for the saturation point\n"
               "  --payload N      message payload bytes (default 512)\n"
               "  --warmup-us N    warm-up time (default 150)\n"
               "  --measure-us N   measurement window (default 400)\n"
               "  --seed N         RNG seed (default 42)\n"
               "  --chunk N        engine chunk size in flits, 1..8 (default "
               "8)\n"
               "  --engine E       pod | pod_parallel (default pod;\n"
               "                   pod_parallel shards ONE simulation across\n"
               "                   --shards worker threads, same results)\n"
               "  --shards N       worker lanes for --engine pod_parallel\n"
               "                   (default: hardware concurrency, clamped to\n"
               "                   the topology's switch count)\n"
               "  --poisson        Poisson instead of constant-rate arrivals\n"
               "  --csv PATH       append results as CSV\n"
               "  --json           print results as JSON instead of a table\n"
               "  --replications N single-point mode: N seed replications "
               "with a 95%% CI\n"
               "  --jobs N         worker threads for sweeps/replications\n"
               "                   (also ITB_BENCH_JOBS; default: hardware\n"
               "                   concurrency; results are identical for\n"
               "                   every N)\n"
               "  --list-topology  print the topology description and exit\n"
               "  --dump-routes N  print routes whose first alternative uses\n"
               "                   >= N in-transit hosts, then exit\n"
               " telemetry (single-point mode):\n"
               "  --trace PATH     record a packet-lifecycle trace and write\n"
               "                   Chrome/Perfetto trace-event JSON (load it\n"
               "                   at ui.perfetto.dev or chrome://tracing)\n"
               "  --trace-raw PATH write the raw trace as CSV (convert later\n"
               "                   with tools/trace2perfetto.py)\n"
               "  --trace-capacity N  trace ring size in records (default\n"
               "                   65536; oldest records drop on overflow)\n"
               "  --samples PATH   append windowed time-series samples as CSV\n"
               "  --sample-us N    sample window width (default measure/20)\n"
               "  --heatmap PATH   write a congestion heatmap CSV: one row\n"
               "                   per (metric, id, window) — link_util by\n"
               "                   channel, itb_pool by host; implies\n"
               "                   windowed sampling (works sharded)\n"
               "  --profile        time engine phases, report per-phase wall\n"
               "                   clock (included in --json output)\n",
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

Topology make_topology(const std::string& spec, const char* argv0) {
  if (spec == "torus") return make_torus_2d(8, 8, 8);
  if (spec == "express") return make_torus_2d_express(8, 8, 8);
  if (spec == "cplant") return make_cplant();
  if (spec.rfind("file:", 0) == 0) return load_topology(spec.substr(5));
  if (spec.rfind("hyperx:", 0) == 0) {
    const auto parts = split(spec.substr(7), ':');
    if (parts.size() != 2) usage(argv0, "hyperx wants hyperx:<S1>x..x<SL>:<hosts>");
    std::vector<int> dims;
    for (const std::string& d : split(parts[0], 'x')) dims.push_back(std::stoi(d));
    return make_hyperx(dims, std::stoi(parts[1]));
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
    return make_dragonfly(std::stoi(parts[0]), std::stoi(parts[1]),
                          std::stoi(parts[2]), arr);
  }
  if (spec.rfind("fullmesh:", 0) == 0) {
    const auto parts = split(spec.substr(9), ':');
    if (parts.size() != 2) usage(argv0, "fullmesh wants fullmesh:<switches>:<hosts>");
    return make_full_mesh(std::stoi(parts[0]), std::stoi(parts[1]));
  }
  if (spec.rfind("irregular:", 0) == 0) {
    const auto parts = split(spec.substr(10), ':');
    if (parts.size() != 4) {
      usage(argv0, "irregular wants irregular:<sw>:<hosts>:<ports>:<seed>");
    }
    Rng rng(std::stoull(parts[3]));
    return make_irregular(std::stoi(parts[0]), std::stoi(parts[1]),
                          std::stoi(parts[2]), rng);
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
    return std::make_unique<HotspotPattern>(
        topo.num_hosts(), std::stoi(parts[0]), std::stod(parts[1]));
  }
  if (spec.rfind("local:", 0) == 0) {
    return std::make_unique<LocalPattern>(topo, std::stoi(spec.substr(6)));
  }
  usage(argv0, "unknown pattern '" + spec + "'");
}

std::optional<EngineKind> parse_engine(const std::string& name) {
  for (const EngineKind e : {EngineKind::kPod, EngineKind::kPodParallel}) {
    if (name == to_string(e)) return e;
  }
  return std::nullopt;
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
  std::string root_spec = "0";
  std::string scheme_name = "ITB-RR";
  std::string pattern_spec = "uniform";
  std::string csv;
  double load = 0.01;
  std::optional<std::string> sweep_spec;
  bool find_sat = false;
  bool list_topology = false;
  bool as_json = false;
  int replications = 1;
  int jobs = default_jobs();
  std::optional<int> dump_routes_min;
  std::string trace_path;
  std::string trace_raw_path;
  std::string samples_path;
  std::string heatmap_path;
  long long sample_us = 0;
  bool profile = false;
  RunConfig cfg;

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--topology") topo_spec = need_value(i);
      else if (arg == "--root") root_spec = need_value(i);
      else if (arg == "--scheme") scheme_name = need_value(i);
      else if (arg == "--pattern") pattern_spec = need_value(i);
      else if (arg == "--load") load = std::stod(need_value(i));
      else if (arg == "--sweep") sweep_spec = need_value(i);
      else if (arg == "--find-saturation") find_sat = true;
      else if (arg == "--payload") cfg.payload_bytes = std::stoi(need_value(i));
      else if (arg == "--warmup-us") cfg.warmup = us(std::stoll(need_value(i)));
      else if (arg == "--measure-us") cfg.measure = us(std::stoll(need_value(i)));
      else if (arg == "--seed") cfg.seed = std::stoull(need_value(i));
      else if (arg == "--chunk") cfg.params.chunk_flits = std::stoi(need_value(i));
      else if (arg == "--engine") {
        const std::string name = need_value(i);
        const auto engine = parse_engine(name);
        if (!engine) usage(argv[0], "unknown engine '" + name + "'");
        cfg.engine = *engine;
        if (cfg.engine == EngineKind::kPodParallel && cfg.shards <= 1) {
          cfg.shards = default_jobs();  // clamped to switches by the plan
        }
      }
      else if (arg == "--shards") cfg.shards = std::stoi(need_value(i));
      else if (arg == "--poisson") cfg.poisson = true;
      else if (arg == "--csv") csv = need_value(i);
      else if (arg == "--json") as_json = true;
      else if (arg == "--replications") replications = std::stoi(need_value(i));
      else if (arg == "--jobs") jobs = std::stoi(need_value(i));
      else if (arg == "--list-topology") list_topology = true;
      else if (arg == "--dump-routes") dump_routes_min = std::stoi(need_value(i));
      else if (arg == "--trace") trace_path = need_value(i);
      else if (arg == "--trace-raw") trace_raw_path = need_value(i);
      else if (arg == "--trace-capacity")
        cfg.trace_capacity = static_cast<std::size_t>(std::stoull(need_value(i)));
      else if (arg == "--samples") samples_path = need_value(i);
      else if (arg == "--heatmap") heatmap_path = need_value(i);
      else if (arg == "--sample-us") sample_us = std::stoll(need_value(i));
      else if (arg == "--profile") profile = true;
      else if (arg == "--help" || arg == "-h") usage(argv[0]);
      else usage(argv[0], "unknown option '" + arg + "'");
    } catch (const std::invalid_argument&) {
      usage(argv[0], "bad value for " + arg);
    }
  }
  if (jobs < 1) usage(argv[0], "--jobs must be >= 1");
  if (cfg.shards < 1) usage(argv[0], "--shards must be >= 1");

  try {
    Topology topo = make_topology(topo_spec, argv[0]);
    if (list_topology) {
      std::fputs(serialize_topology(topo).c_str(), stdout);
      return 0;
    }
    const auto scheme = parse_scheme(scheme_name);
    if (!scheme) usage(argv[0], "unknown scheme '" + scheme_name + "'");
    const SwitchId root =
        root_spec == "auto" ? kAutoRoot : std::stoi(root_spec);
    if (root != kAutoRoot && (root < 0 || root >= topo.num_switches())) {
      usage(argv[0], "--root out of range for this topology");
    }
    Testbed tb(std::move(topo), root);
    if (dump_routes_min) {
      const RouteSet& rs = tb.routes(*scheme);
      std::printf("# %s\n", summarize_route_set(tb.topo(), rs).c_str());
      std::ostringstream os;
      dump_routes(os, tb.topo(), rs, *dump_routes_min);
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
    } else if (sweep_spec) {
      const auto parts = split(*sweep_spec, ':');
      if (parts.size() != 3) usage(argv[0], "--sweep wants LO:HI:N");
      const auto loads = geometric_loads(std::stod(parts[0]),
                                         std::stod(parts[1]),
                                         std::stoi(parts[2]));
      const auto series = sweep_loads(tb, *scheme, *pattern, cfg, loads, jobs);
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
      cfg.trace = !trace_path.empty() || !trace_raw_path.empty();
      cfg.profile = profile;
      if (!samples_path.empty() || !heatmap_path.empty() || sample_us > 0) {
        cfg.sample_period =
            sample_us > 0 ? us(sample_us) : cfg.measure / 20;
        if (cfg.sample_period <= 0) cfg.sample_period = cfg.measure;
        cfg.sample_link_util = true;
        cfg.sample_itb_pool = !heatmap_path.empty();
      }
      const RunResult r = run_point(tb, *scheme, *pattern, cfg);
      if (cfg.engine == EngineKind::kPodParallel && r.shards == 0) {
        std::fprintf(stderr,
                     "itbsim: note: pod_parallel downgraded to serial for "
                     "this point (adaptive routing needs the serial "
                     "feedback loop)\n");
      }
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
      SimWorkspace& ws = this_thread_workspace();
      const Network& net = ws.net();
      if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        // Sharded points also export the engine-health track group (one
        // pid per lane: window slices, barrier waits, mailbox counters).
        os << trace_to_chrome_json(r.trace, net, r.trace_dropped,
                                   ws.parallel() ? &ws.engine() : nullptr);
        if (!os) throw std::runtime_error("cannot write " + trace_path);
        std::fprintf(stderr,
                     "trace: %llu records (%llu dropped) -> %s\n",
                     static_cast<unsigned long long>(r.trace_records),
                     static_cast<unsigned long long>(r.trace_dropped),
                     trace_path.c_str());
      }
      if (!trace_raw_path.empty()) {
        std::ofstream os(trace_raw_path);
        os << trace_to_csv(r.trace);
        if (!os) throw std::runtime_error("cannot write " + trace_raw_path);
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
      if (profile && !as_json) {
        std::printf("# phase profile (wall clock, inclusive)\n");
        for (std::size_t i = 0; i < r.profile.size(); ++i) {
          const PhaseAgg& a = r.profile[i];
          if (a.calls == 0) continue;
          std::printf("  %-16s %10.3f ms  %12llu calls\n",
                      to_string(static_cast<Phase>(i)),
                      static_cast<double>(a.wall_ns) / 1e6,
                      static_cast<unsigned long long>(a.calls));
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "itbsim: %s\n", e.what());
    return 1;
  }
  return 0;
}
