// Field-registry suite: every RunResult scalar flows through ONE table
// (harness/result_fields.hpp) into the full JSON, the canonical JSON, the
// CSV and the determinism comparison.  These tests round-trip a result
// through each surface and fail when a field reaches one emitter but not
// another — the drift that used to happen when json.cpp, report.cpp and
// same_simulated_metrics kept separate hand-written lists.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hpp"
#include "harness/report.hpp"
#include "harness/result_fields.hpp"
#include "harness/runner.hpp"

namespace itb {
namespace {

/// A RunResult whose every scalar field carries a distinctive value, so a
/// getter wired to the wrong member shows up as a duplicate or a missing
/// value on some surface.
RunResult distinctive_result() {
  RunResult r;
  r.offered = 1.25;
  r.accepted = 2.25;
  r.avg_latency_ns = 3.25;
  r.avg_latency_gen_ns = 4.25;
  r.p50_latency_ns = 5.25;
  r.p99_latency_ns = 6.25;
  r.latency_ci95_ns = 7.25;
  r.avg_itbs = 8.25;
  r.delivered = 101;
  r.spills = 102;
  r.fc_violations = 103;
  r.max_buffer_occupancy = 104;
  r.saturated = true;
  r.wall_ms = 9.25;
  r.events = 105;
  r.events_per_sec = 10.25;
  r.peak_event_queue_len = 106;
  r.events_coalesced = 107;
  r.queue_far_pops = 122;
  r.workspace_reuses = 108;
  r.arena_bytes_peak = 109;
  r.heap_allocs_steady_state = 110;
  r.trace_records = 111;
  r.trace_dropped = 112;
  r.route_table_bytes = 114;
  r.route_build_ms = 11.25;
  r.route_segments_shared = 115;
  r.route_core_pairs = 120;
  r.route_core_bytes = 121;
  r.checked = false;
  r.invariant_violations = 113;
  return r;
}

/// `"<key>":` — built with append (chained operator+ on temporaries trips
/// GCC 12's -Wrestrict false positive at -O2 under -Werror).
std::string key_needle(const char* key) {
  std::string s;
  s += '"';
  s += key;
  s += "\":";
  return s;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  for (std::string cell; std::getline(ss, cell, ',');) out.push_back(cell);
  return out;
}

TEST(ResultFields, RegistryKeysUniqueAndTyped) {
  std::set<std::string> keys;
  for (const ResultField& f : result_fields()) {
    ASSERT_NE(f.json_key, nullptr);
    EXPECT_FALSE(std::string(f.json_key).empty());
    EXPECT_TRUE(keys.insert(f.json_key).second)
        << "duplicate registry key " << f.json_key;
    ASSERT_NE(f.get, nullptr);
  }
}

TEST(ResultFields, GettersMapToDistinctMembers) {
  const RunResult r = distinctive_result();
  std::vector<FieldValue> values;
  for (const ResultField& f : result_fields()) values.push_back(f.get(r));
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = i + 1; j < values.size(); ++j) {
      EXPECT_FALSE(values[i] == values[j])
          << result_fields()[i].json_key << " and "
          << result_fields()[j].json_key
          << " read the same value from a fully distinctive RunResult";
    }
  }
}

TEST(ResultFields, FullJsonCarriesEveryRegistryKey) {
  const std::string json = run_result_to_json(distinctive_result());
  for (const ResultField& f : result_fields()) {
    EXPECT_NE(json.find(key_needle(f.json_key)), std::string::npos)
        << f.json_key << " missing from the full JSON";
  }
}

TEST(ResultFields, CanonicalJsonIsExactlyTheSimulatedKeys) {
  const std::string canonical =
      run_result_to_canonical_json(distinctive_result());
  for (const ResultField& f : result_fields()) {
    const bool present =
        canonical.find(key_needle(f.json_key)) != std::string::npos;
    if (f.cls == FieldClass::kSimulated) {
      EXPECT_TRUE(present) << f.json_key << " missing from canonical JSON";
    } else {
      EXPECT_FALSE(present)
          << "host-side field " << f.json_key
          << " leaked into the canonical (golden-fixture) JSON";
    }
  }
}

TEST(ResultFields, CsvColumnsMatchRegistryOrder) {
  const std::string path = ::testing::TempDir() + "itb_fields_test.csv";
  std::remove(path.c_str());
  append_series_csv(path, "exp", "SCHEME", {{0.01, distinctive_result()}});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  std::remove(path.c_str());

  const std::vector<std::string> cols = split_csv(header);
  const auto fields = result_fields();
  ASSERT_EQ(cols.size(), fields.size() + 2);
  EXPECT_EQ(cols[0], "experiment");
  EXPECT_EQ(cols[1], "scheme");
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(cols[i + 2], fields[i].json_key);
  }
  // Row width matches the header: a field emitted in the header but not
  // the row (or vice versa) shears the table.
  EXPECT_EQ(split_csv(row).size(), cols.size());
}

TEST(ResultFields, DeterminismComparisonUsesTheRegistryClasses) {
  const RunResult a = distinctive_result();

  // Host-side drift must not break the determinism predicate…
  RunResult b = a;
  b.wall_ms *= 2.0;
  b.events_per_sec += 1.0;
  b.workspace_reuses += 5;
  b.trace_records += 7;
  b.trace_dropped += 7;
  b.route_table_bytes += 11;
  b.route_build_ms += 0.5;
  b.route_segments_shared += 3;
  b.route_core_pairs += 19;
  b.route_core_bytes += 23;
  b.queue_far_pops += 29;
  EXPECT_TRUE(same_simulated_metrics(a, b));

  // …while any simulated scalar difference must.
  RunResult c = a;
  c.delivered += 1;
  EXPECT_FALSE(same_simulated_metrics(a, c));
  RunResult d = a;
  d.avg_latency_ns += 1e-9;
  EXPECT_FALSE(same_simulated_metrics(a, d));
  RunResult e = a;
  e.events_coalesced += 1;
  EXPECT_FALSE(same_simulated_metrics(a, e));
}

TEST(ResultFields, RegistryCoversEveryRunResultScalar) {
  // Drift guard: adding a scalar to RunResult without registering it (or
  // registering without adding) trips this count.  Update BOTH together —
  // result_fields.cpp is the single source the emitters iterate.
  EXPECT_EQ(result_fields().size(), 31u);
}

}  // namespace
}  // namespace itb
