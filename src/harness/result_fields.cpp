#include "harness/result_fields.hpp"

namespace itb {

namespace {

constexpr FieldValue f64(double v) {
  FieldValue out;
  out.type = FieldType::kF64;
  out.f64 = v;
  return out;
}
constexpr FieldValue u64(std::uint64_t v) {
  FieldValue out;
  out.type = FieldType::kU64;
  out.u64 = v;
  return out;
}
constexpr FieldValue i64(std::int64_t v) {
  FieldValue out;
  out.type = FieldType::kI64;
  out.i64 = v;
  return out;
}
constexpr FieldValue boolean(bool v) {
  FieldValue out;
  out.type = FieldType::kBool;
  out.b = v;
  return out;
}

constexpr FieldClass kSim = FieldClass::kSimulated;
constexpr FieldClass kHost = FieldClass::kHost;

// Serialization order — the canonical (golden) JSON is this walk minus the
// kHost rows, so the relative order of kSim rows is pinned by the committed
// fixtures in tests/golden/.
constexpr ResultField kFields[] = {
    {"offered", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.offered); }},
    {"accepted", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.accepted); }},
    {"latency_ns", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.avg_latency_ns); }},
    {"latency_gen_ns", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.avg_latency_gen_ns); }},
    {"latency_p50_ns", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.p50_latency_ns); }},
    {"latency_p99_ns", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.p99_latency_ns); }},
    {"latency_ci95_ns", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.latency_ci95_ns); }},
    {"itbs_per_msg", FieldType::kF64, kSim,
     [](const RunResult& r) { return f64(r.avg_itbs); }},
    {"delivered", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.delivered); }},
    {"spills", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.spills); }},
    {"fc_violations", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.fc_violations); }},
    {"max_buffer_occupancy", FieldType::kI64, kSim,
     [](const RunResult& r) { return i64(r.max_buffer_occupancy); }},
    {"saturated", FieldType::kBool, kSim,
     [](const RunResult& r) { return boolean(r.saturated); }},
    {"wall_ms", FieldType::kF64, kHost,
     [](const RunResult& r) { return f64(r.wall_ms); }},
    {"events", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.events); }},
    {"events_per_sec", FieldType::kF64, kHost,
     [](const RunResult& r) { return f64(r.events_per_sec); }},
    {"peak_event_queue_len", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.peak_event_queue_len); }},
    {"events_coalesced", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.events_coalesced); }},
    // Host-side: a property of the event queue's layout, not of the
    // simulated outcome, so a queue change may move it with goldens fixed.
    {"queue_far_pops", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.queue_far_pops); }},
    {"workspace_reuses", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.workspace_reuses); }},
    {"arena_bytes_peak", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.arena_bytes_peak); }},
    {"heap_allocs_steady_state", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.heap_allocs_steady_state); }},
    {"trace_records", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.trace_records); }},
    {"trace_dropped", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.trace_dropped); }},
    // Route-store observability: host-side like trace_records, so runs
    // compare equal across store implementations and build modes.
    {"route_table_bytes", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.route_table_bytes); }},
    {"route_build_ms", FieldType::kF64, kHost,
     [](const RunResult& r) { return f64(r.route_build_ms); }},
    {"route_segments_shared", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.route_segments_shared); }},
    {"route_core_pairs", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.route_core_pairs); }},
    {"route_core_bytes", FieldType::kU64, kHost,
     [](const RunResult& r) { return u64(r.route_core_bytes); }},
    {"checked", FieldType::kBool, kSim,
     [](const RunResult& r) { return boolean(r.checked); }},
    {"invariant_violations", FieldType::kU64, kSim,
     [](const RunResult& r) { return u64(r.invariant_violations); }},
};

}  // namespace

std::span<const ResultField> result_fields() { return kFields; }

}  // namespace itb
