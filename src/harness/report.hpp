// Human-readable tables / CSV emission for the bench binaries.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace itb {

/// Print a latency-vs-traffic series (one paper figure panel) as a table:
/// offered, accepted, average latency, ITBs/message.
void print_series(std::ostream& os, const std::string& title,
                  const std::string& scheme,
                  const std::vector<SweepPoint>& series);

/// Append a series to a CSV file (header written when the file is empty):
/// experiment,scheme,load,accepted,lat_net_ns,lat_gen_ns,p99_ns,itbs,saturated
void append_series_csv(const std::string& path, const std::string& experiment,
                       const std::string& scheme,
                       const std::vector<SweepPoint>& series);

/// Simple fixed-width table builder for the hotspot throughput tables.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers.
[[nodiscard]] std::string fmt_load(double v);      // 0.0123
[[nodiscard]] std::string fmt_ns(double v);        // 1234.5
[[nodiscard]] std::string fmt_ratio(double v);     // 2.13
[[nodiscard]] std::string fmt_pct(double v);       // 12.3%

/// Options shared by all bench binaries: ITB_BENCH_FAST=1 or --fast shrink
/// simulated windows; --record FILE names the file bench_paper writes its
/// reproduction record (REPRO.json) to; --jobs N (or
/// ITB_BENCH_JOBS) sets the worker count for the parallel drivers
/// (default: hardware concurrency).  Unknown flags abort with a usage
/// message (exit code 2).
struct BenchOptions {
  bool fast = false;
  std::string record;
  int jobs = 1;  // parse_bench_args fills in the real default
};
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv);

}  // namespace itb
