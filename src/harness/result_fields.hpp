// RunResult scalar-field registry: ONE table driving JSON emission, CSV
// emission and the determinism comparison.
//
// Before this registry, json.cpp, report.cpp and same_simulated_metrics
// each kept their own hand-written field list, and a new RunResult field
// had to be added to all three (and historically wasn't — CSV silently
// lagged JSON).  Now each emitter iterates result_fields() and
// test_result_fields fails the build-out if a scalar field exists in one
// surface but not another.
//
// Field classes:
//  * kSimulated — deterministic for a fixed config/engine: part of the
//    canonical (golden-fixture) JSON and compared bit-exactly by
//    same_simulated_metrics.
//  * kHost — wall-clock or allocation observability that legitimately
//    varies between identical simulated runs (wall_ms, workspace reuse
//    counters, trace bookkeeping): full JSON and CSV only.
//
// Table order IS the emission order; the canonical JSON is the same walk
// with kHost entries skipped.  The committed goldens pin that byte order,
// so append new fields in the position they should serialize, and keep
// simulated fields out of existing canonical positions unless you are
// deliberately regenerating goldens (ITB_UPDATE_GOLDEN).
#pragma once

#include <cstdint>
#include <span>

#include "harness/runner.hpp"

namespace itb {

enum class FieldType : std::uint8_t { kF64, kU64, kI64, kBool };
enum class FieldClass : std::uint8_t { kSimulated, kHost };

/// Typed value of one scalar field, preserving the exact JsonWriter
/// overload (and therefore formatting) the historical emitters used.
struct FieldValue {
  FieldType type = FieldType::kF64;
  double f64 = 0.0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  bool b = false;

  friend bool operator==(const FieldValue&, const FieldValue&) = default;
};

struct ResultField {
  const char* json_key;  // doubles as the CSV column name
  FieldType type;
  FieldClass cls;
  FieldValue (*get)(const RunResult&);
};

/// Every scalar RunResult field, in serialization order.  Non-scalar
/// members (link_util, violations, samples) are emitted and
/// compared structurally by their owners.
[[nodiscard]] std::span<const ResultField> result_fields();

}  // namespace itb
