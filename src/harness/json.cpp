#include "harness/json.hpp"

#include <cmath>
#include <cstdio>

#include "harness/result_fields.hpp"

namespace itb {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::separator() {
  if (!needs_comma_.empty() && needs_comma_.back() && !pending_key_) {
    out_ += ',';
  }
  if (!needs_comma_.empty() && !pending_key_) needs_comma_.back() = true;
  pending_key_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  separator();
  out_ += json_quote(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  if (std::isfinite(v)) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out_ += buf;
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separator();
  out_ += json_quote(v);
  return *this;
}

namespace {
void emit_field(JsonWriter& w, const ResultField& f, const RunResult& r) {
  const FieldValue v = f.get(r);
  w.key(f.json_key);
  switch (v.type) {
    case FieldType::kF64: w.value(v.f64); break;
    case FieldType::kU64: w.value(v.u64); break;
    case FieldType::kI64: w.value(v.i64); break;
    case FieldType::kBool: w.value(v.b); break;
  }
}

void emit_result(JsonWriter& w, const RunResult& r, bool host_metrics) {
  w.begin_object();
  // Every scalar field comes from the registry (harness/result_fields.cpp);
  // the canonical (golden-fixture) form skips host-side observability — a
  // reused workspace or a traced run legitimately reports different values
  // than a plain run of the same simulated point.
  for (const ResultField& f : result_fields()) {
    if (!host_metrics && f.cls == FieldClass::kHost) continue;
    emit_field(w, f, r);
  }
  w.key("violations").begin_array();
  for (const InvariantViolation& v : r.violations) {
    w.begin_object();
    w.key("kind").value(to_string(v.kind));
    w.key("time_ps").value(static_cast<std::int64_t>(v.time));
    w.key("id").value(v.id);
    w.key("detail").value(v.detail);
    w.end_object();
  }
  w.end_array();
  // Telemetry series are emitted only when captured, so untraced/unsampled
  // output — including every committed golden — is byte-identical to the
  // pre-telemetry format.
  if (!r.samples.empty()) {
    w.key("samples").begin_array();
    for (const TimeSeriesSample& s : r.samples) {
      w.begin_object();
      w.key("t_start_ps").value(static_cast<std::int64_t>(s.t_start));
      w.key("t_end_ps").value(static_cast<std::int64_t>(s.t_end));
      w.key("delivered").value(s.delivered);
      w.key("accepted").value(s.accepted_flits_per_ns_per_switch);
      w.key("avg_latency_ns").value(s.avg_latency_ns);
      w.key("events").value(s.events);
      w.key("queue_len").value(s.queue_len);
      w.key("itb_pool_frac").value(s.itb_pool_frac);
      if (!s.link_util.empty()) {
        w.key("link_util").begin_array();
        for (const float u : s.link_util) {
          w.value(static_cast<double>(u));
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}
}  // namespace

std::string run_result_to_json(const RunResult& r) {
  JsonWriter w;
  emit_result(w, r, /*host_metrics=*/true);
  return w.str();
}

std::string run_result_to_canonical_json(const RunResult& r) {
  JsonWriter w;
  emit_result(w, r, /*host_metrics=*/false);
  return w.str();
}

std::string series_to_json(const std::string& experiment,
                           const std::string& scheme,
                           const std::vector<SweepPoint>& series) {
  JsonWriter w;
  w.begin_object();
  w.key("experiment").value(experiment);
  w.key("scheme").value(scheme);
  w.key("points").begin_array();
  for (const SweepPoint& p : series) emit_result(w, p.result, true);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace itb
