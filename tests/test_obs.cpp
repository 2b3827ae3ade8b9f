// Telemetry-layer suite: the PacketTracer ring (wrap/overflow accounting),
// the pure-observer contract (tracing on vs off is bit-identical
// in every simulated metric), trace determinism across workspace reuse, and
// the Perfetto exporter's structural sanity.
#include <gtest/gtest.h>

#include <string>

#include "harness/runner.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

RunConfig traced_config() {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(30);
  cfg.measure = us(80);
  cfg.trace = true;
  return cfg;
}

bool same_record(const PacketTraceRecord& a, const PacketTraceRecord& b) {
  return a.t == b.t && a.packet == b.packet && a.ch == b.ch && a.sw == b.sw &&
         a.host == b.host && a.kind == b.kind;
}

bool same_trace(const std::vector<PacketTraceRecord>& a,
                const std::vector<PacketTraceRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_record(a[i], b[i])) return false;
  }
  return true;
}

TEST(PacketTracer, RingWrapKeepsNewestAndCountsDropped) {
  PacketTracer tr;
  tr.configure(4);
  EXPECT_EQ(tr.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tr.record(static_cast<TimePs>(100 * i), TraceKind::kHeader, i,
              static_cast<ChannelId>(i), 0, 0);
  }
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.stored(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);

  // Snapshot is the newest 4 records, oldest surviving first.
  const auto snap = tr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].packet, 6u + i);
    EXPECT_EQ(snap[i].t, static_cast<TimePs>(100 * (6 + i)));
  }
}

TEST(PacketTracer, NoWrapSnapshotIsInsertionOrder) {
  PacketTracer tr;
  tr.configure(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    tr.record(static_cast<TimePs>(i), TraceKind::kInject, i, -1, kNoSwitch, 0);
  }
  EXPECT_EQ(tr.dropped(), 0u);
  const auto snap = tr.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(snap[i].packet, i);
}

TEST(PacketTracer, ZeroCapacityClampsToOne) {
  PacketTracer tr;
  tr.configure(0);
  EXPECT_EQ(tr.capacity(), 1u);
  tr.record(1, TraceKind::kInject, 7, -1, kNoSwitch, 0);
  tr.record(2, TraceKind::kDeliver, 8, -1, kNoSwitch, 0);
  EXPECT_EQ(tr.stored(), 1u);
  EXPECT_EQ(tr.snapshot().front().packet, 8u);
}

TEST(PacketTracer, ReconfigureSameCapacityResetsCountsKeepsStorage) {
  PacketTracer tr;
  tr.configure(16);
  tr.record(1, TraceKind::kInject, 1, -1, kNoSwitch, 0);
  tr.configure(16);
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_EQ(tr.stored(), 0u);
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Obs, TracingOnVsOffBitIdentical) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = traced_config();

  const RunResult traced = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  cfg.trace = false;
  const RunResult plain = run_point(tb, RoutingScheme::kItbRr, pat, cfg);

  EXPECT_GT(traced.delivered, 0u);
  EXPECT_GT(traced.trace_records, 0u);
  EXPECT_FALSE(traced.trace.empty());
  EXPECT_EQ(plain.trace_records, 0u);
  EXPECT_TRUE(plain.trace.empty());
  // The pure-observer contract: every simulated metric agrees bit-exactly.
  EXPECT_TRUE(same_simulated_metrics(traced, plain));
}

TEST(Obs, TraceDeterministicAcrossWorkspaceReuse) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = traced_config();

  SimWorkspace fresh;
  const RunResult a = run_point_in(fresh, tb, RoutingScheme::kItbRr, pat, cfg);
  SimWorkspace reused;
  (void)run_point_in(reused, tb, RoutingScheme::kItbRr, pat, cfg);
  const RunResult b = run_point_in(reused, tb, RoutingScheme::kItbRr, pat, cfg);

  EXPECT_TRUE(same_simulated_metrics(a, b));
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.trace_dropped, b.trace_dropped);
  EXPECT_TRUE(same_trace(a.trace, b.trace));
}

TEST(Obs, TinyRingOverflowsAndStaysChronological) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg = traced_config();
  cfg.trace_capacity = 64;

  const RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  EXPECT_GT(r.trace_dropped, 0u);
  EXPECT_EQ(r.trace.size(), 64u);
  EXPECT_EQ(r.trace_records, r.trace_dropped + r.trace.size());
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i - 1].t, r.trace[i].t);
  }
}

TEST(Obs, PerfettoExportIsStructurallySane) {
  Testbed tb(make_torus_2d(4, 4, 4));
  UniformPattern pat(tb.topo().num_hosts());
  const RunConfig cfg = traced_config();
  const RunResult r = run_point(tb, RoutingScheme::kItbRr, pat, cfg);

  // run_point leaves the calling thread's workspace prepared for this
  // point, so its Network still carries the channel labels.
  const Network& net = this_thread_workspace().net();
  const std::string json =
      trace_to_chrome_json(r.trace, net, r.trace_dropped);

  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // channel slices
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // inject
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // deliver
  // Balanced braces/brackets (no strings in the export contain either —
  // channel labels are alphanumeric wiring names).
  long braces = 0;
  long brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Export is a pure function of the records: byte-stable across calls.
  EXPECT_EQ(json, trace_to_chrome_json(r.trace, net, r.trace_dropped));
}

}  // namespace
}  // namespace itb
