// Trace-driven workloads.
//
// A MessageTrace is a time-ordered list of (time, source, destination,
// bytes) records.  Traces can be captured from any synthetic run (the
// TrafficGenerator gets a tap), written to / read from a simple text
// format, filtered, and replayed into a Network — which makes scheme
// comparisons *paired*: UP/DOWN and ITB replay the identical message
// sequence instead of merely statistically equal ones.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "topo/types.hpp"

namespace itb {

struct TraceRecord {
  TimePs time = 0;
  HostId src = kNoHost;
  HostId dst = kNoHost;
  int payload_bytes = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class MessageTrace {
 public:
  void add(TraceRecord rec);
  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  /// Records must be appended in nondecreasing time order; add() enforces
  /// this (throws std::invalid_argument).
  [[nodiscard]] TimePs duration() const {
    return records_.empty() ? 0 : records_.back().time;
  }

  /// Keep only records in [from, to).
  [[nodiscard]] MessageTrace window(TimePs from, TimePs to) const;

  // --- text format: one "time_ps src dst bytes" line per record; read()
  // rejects negative hosts and trailing tokens ---
  void write(std::ostream& os) const;
  [[nodiscard]] static MessageTrace read(std::istream& is);
  void save(const std::string& path) const;
  [[nodiscard]] static MessageTrace load(const std::string& path);

  friend bool operator==(const MessageTrace&, const MessageTrace&) = default;

 private:
  std::vector<TraceRecord> records_;
};

/// Replays a trace into a network: each record becomes an inject() at its
/// absolute timestamp, through kReplay events on the Simulator.  Records
/// that are already due when start() runs fire at the current time.
class TraceReplayer : public PodHandler {
 public:
  /// Throws std::invalid_argument naming the first record whose source or
  /// destination is not a host of `net`, or whose payload exceeds
  /// kMaxPayloadBytes.  Self-sends and empty payloads are accepted and
  /// skipped at replay.
  TraceReplayer(Simulator& sim, Network& net, MessageTrace trace);

  /// Register for kReplay and schedule the first record; call once.
  void start();

  [[nodiscard]] std::uint64_t messages_replayed() const { return replayed_; }

 private:
  Simulator* sim_;
  Network* net_;
  MessageTrace trace_;
  std::size_t next_ = 0;
  std::uint64_t replayed_ = 0;
  bool started_ = false;

  void schedule_next();
  /// kReplay: inject every record due now, then schedule the next.
  void handle_event(const Event& e) override;
};

}  // namespace itb
