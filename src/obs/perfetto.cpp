#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace itb {
namespace {

// obs cannot use harness/json.hpp (the harness links obs), so the exporter
// carries its own minimal emission helpers.
void append_ts_us(std::string& out, TimePs ps) {
  char buf[40];
  // 1 ps == 1e-6 us: six decimals are exact, no rounding.
  std::snprintf(buf, sizeof(buf), "%lld.%06lld",
                static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  out += buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_meta(std::string& out, const char* name, int pid, int tid,
                 const std::string& value) {
  out += R"({"name":")";
  out += name;
  out += R"(","ph":"M","pid":)";
  out += std::to_string(pid);
  if (tid >= 0) {
    out += ",\"tid\":";
    out += std::to_string(tid);
  }
  out += R"(,"args":{"name":)";
  append_quoted(out, value);
  out += "}},";
}

}  // namespace

std::string trace_to_chrome_json(const std::vector<PacketTraceRecord>& records,
                                 const Network& net, std::uint64_t dropped) {
  std::string out;
  out.reserve(records.size() * 96 + 4096);
  out += R"({"displayTimeUnit":"ns","otherData":{"dropped_records":)";
  out += std::to_string(dropped);
  out += R"(,"records":)";
  out += std::to_string(records.size());
  out += R"(},"traceEvents":[)";

  append_meta(out, "process_name", 1, -1, "channels");
  append_meta(out, "process_name", 2, -1, "packets");
  const int num_channels = net.topology().num_channels();
  for (ChannelId ch = 0; ch < num_channels; ++ch) {
    append_meta(out, "thread_name", 1, ch, net.channel_label(ch));
  }

  // Track the open acquire on each channel so acquire/release pairs become
  // one complete slice.  A release whose acquire was overwritten by ring
  // wrap has no open slice and is skipped; an acquire still open at the end
  // of the trace is closed at the last record's timestamp.
  std::unordered_map<ChannelId, PacketTraceRecord> open;
  const TimePs t_last = records.empty() ? 0 : records.back().t;

  auto emit_slice = [&out](const PacketTraceRecord& acq, TimePs t_end) {
    out += R"({"name":"pkt )";
    out += std::to_string(acq.packet);
    out += R"(","cat":"channel","ph":"X","pid":1,"tid":)";
    out += std::to_string(acq.ch);
    out += ",\"ts\":";
    append_ts_us(out, acq.t);
    out += ",\"dur\":";
    append_ts_us(out, t_end - acq.t);
    out += R"(,"args":{"packet":)";
    out += std::to_string(acq.packet);
    out += "}},";
  };

  for (const PacketTraceRecord& r : records) {
    switch (r.kind) {
      case TraceKind::kChanAcquire:
        open[r.ch] = r;
        continue;
      case TraceKind::kChanRelease: {
        auto it = open.find(r.ch);
        if (it != open.end()) {
          emit_slice(it->second, r.t);
          open.erase(it);
        }
        continue;
      }
      default:
        break;
    }
    // Packet-lifecycle milestone -> async event keyed by packet id.
    const char* ph = r.kind == TraceKind::kInject   ? "b"
                     : r.kind == TraceKind::kDeliver ? "e"
                                                     : "n";
    out += R"({"name":")";
    out += to_string(r.kind);
    out += R"(","cat":"packet","ph":")";
    out += ph;
    out += R"(","id":)";
    out += std::to_string(r.packet);
    out += R"(,"pid":2,"tid":0,"ts":)";
    append_ts_us(out, r.t);
    if (r.kind != TraceKind::kDeliver) {
      out += R"(,"args":{"sw":)";
      out += std::to_string(r.sw);
      out += ",\"host\":";
      out += std::to_string(r.host);
      out += "}";
    }
    out += "},";
  }
  // Close still-open slices in channel order so the export is byte-stable.
  std::vector<PacketTraceRecord> leftovers;
  leftovers.reserve(open.size());
  for (const auto& [ch, acq] : open) leftovers.push_back(acq);
  std::sort(leftovers.begin(), leftovers.end(),
            [](const PacketTraceRecord& a, const PacketTraceRecord& b) { return a.ch < b.ch; });
  for (const PacketTraceRecord& acq : leftovers) emit_slice(acq, t_last);

  if (out.back() == ',') out.pop_back();
  out += "]}";
  return out;
}

}  // namespace itb
