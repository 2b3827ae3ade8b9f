#include "harness/report.hpp"

#include "sim/pool.hpp"
#include "harness/result_fields.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>

namespace itb {

namespace {
std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}
}  // namespace

std::string fmt_load(double v) { return fmt("%.4f", v); }
std::string fmt_ns(double v) { return fmt("%.1f", v); }
std::string fmt_ratio(double v) { return fmt("%.2f", v); }
std::string fmt_pct(double v) { return fmt("%.1f%%", v * 100.0); }

void print_series(std::ostream& os, const std::string& title,
                  const std::string& scheme,
                  const std::vector<SweepPoint>& series) {
  os << "# " << title << " — " << scheme << "\n";
  os << "  offered    accepted   latency(ns)  lat-gen(ns)   p99(ns)  itb/msg"
     << "  sat   wall(ms)   Mev/s\n";
  for (const SweepPoint& p : series) {
    const RunResult& r = p.result;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  %8.4f   %8.4f   %10.1f   %10.1f  %8.1f   %6.2f  %s "
                  "%9.1f  %6.2f\n",
                  r.offered, r.accepted, r.avg_latency_ns, r.avg_latency_gen_ns,
                  r.p99_latency_ns, r.avg_itbs, r.saturated ? "yes" : "no ",
                  r.wall_ms, r.events_per_sec / 1e6);
    os << buf;
  }
}

void append_series_csv(const std::string& path, const std::string& experiment,
                       const std::string& scheme,
                       const std::vector<SweepPoint>& series) {
  if (path.empty()) return;
  std::ifstream probe(path);
  const bool empty = !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
  probe.close();
  std::ofstream os(path, std::ios::app);
  // Columns come from the same registry that drives JSON emission, under
  // the same names, so the surfaces cannot drift (test_result_fields).
  if (empty) {
    os << "experiment,scheme";
    for (const ResultField& f : result_fields()) os << ',' << f.json_key;
    os << '\n';
  }
  for (const SweepPoint& p : series) {
    os << experiment << ',' << scheme;
    for (const ResultField& f : result_fields()) {
      const FieldValue v = f.get(p.result);
      os << ',';
      switch (v.type) {
        case FieldType::kF64: os << v.f64; break;
        case FieldType::kU64: os << v.u64; break;
        case FieldType::kI64: os << v.i64; break;
        case FieldType::kBool: os << (v.b ? 1 : 0); break;
      }
    }
    os << '\n';
  }
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    width[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < width.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  auto pad = [&](const std::string& s, std::size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };
  os << "  ";
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    os << pad(headers_[i], width[i]) << "  ";
  }
  os << "\n";
  for (const auto& row : rows_) {
    os << "  ";
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << pad(row[i], width[i]) << "  ";
    }
    os << "\n";
  }
}

namespace {
[[noreturn]] void bench_usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: " << (argv0 != nullptr ? argv0 : "bench")
            << " [options]\n"
               "  --fast         smoke-speed windows (also ITB_BENCH_FAST=1)\n"
               "  --full         full-length windows (the default)\n"
               "  --record FILE  write the reproduction record (bench_paper)\n"
               "  --jobs N       worker threads for parallel runs, 1 to 1024\n"
               "                 (also ITB_BENCH_JOBS; default: hardware "
               "concurrency)\n";
  std::exit(2);
}
}  // namespace

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  opts.jobs = default_jobs();
  const char* env = std::getenv("ITB_BENCH_FAST");
  if (env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    opts.fast = true;
  }
  const char* argv0 = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      opts.fast = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      opts.fast = false;
    } else if (std::strcmp(argv[i], "--record") == 0) {
      if (i + 1 >= argc) bench_usage(argv0, "--record needs a file path");
      opts.record = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) bench_usage(argv0, "--jobs needs a count");
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1 || v > kMaxJobs) {
        bench_usage(argv0, std::string("bad --jobs value '") + argv[i] + "'");
      }
      opts.jobs = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      bench_usage(argv0, "");
    } else {
      bench_usage(argv0, std::string("unknown argument '") + argv[i] + "'");
    }
  }
  return opts;
}

}  // namespace itb
