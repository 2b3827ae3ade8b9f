#include "traffic/trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace itb {

void MessageTrace::add(TraceRecord rec) {
  if (!records_.empty() && rec.time < records_.back().time) {
    throw std::invalid_argument("MessageTrace: records must be time-ordered");
  }
  records_.push_back(rec);
}

MessageTrace MessageTrace::window(TimePs from, TimePs to) const {
  MessageTrace out;
  for (const TraceRecord& r : records_) {
    if (r.time >= from && r.time < to) out.add(r);
  }
  return out;
}

void MessageTrace::write(std::ostream& os) const {
  for (const TraceRecord& r : records_) {
    os << r.time << ' ' << r.src << ' ' << r.dst << ' ' << r.payload_bytes
       << '\n';
  }
}

MessageTrace MessageTrace::read(std::istream& is) {
  MessageTrace out;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceRecord r;
    std::string extra;
    if (!(ls >> r.time >> r.src >> r.dst >> r.payload_bytes) || r.src < 0 ||
        r.dst < 0 || (ls >> extra)) {
      throw std::runtime_error("MessageTrace: malformed line " +
                               std::to_string(lineno));
    }
    out.add(r);
  }
  return out;
}

void MessageTrace::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os.good()) {
    throw std::runtime_error("MessageTrace: cannot write " + path);
  }
  write(os);
}

MessageTrace MessageTrace::load(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw std::runtime_error("MessageTrace: cannot read " + path);
  }
  return read(is);
}

TraceReplayer::TraceReplayer(Simulator& sim, Network& net, MessageTrace trace)
    : sim_(&sim), net_(&net), trace_(std::move(trace)) {
  const HostId hosts = net_->topology().num_hosts();
  const auto& rs = trace_.records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const TraceRecord& r = rs[i];
    const bool hosts_ok =
        r.src >= 0 && r.src < hosts && r.dst >= 0 && r.dst < hosts;
    if (!hosts_ok || r.payload_bytes > kMaxPayloadBytes) {
      throw std::invalid_argument(
          "TraceReplayer: record " + std::to_string(i) +
          (hosts_ok ? ": payload above " + std::to_string(kMaxPayloadBytes) +
                          " bytes"
                    : ": host outside [0, " + std::to_string(hosts) + ")"));
    }
  }
}

void TraceReplayer::start() {
  if (started_) throw std::logic_error("TraceReplayer: started twice");
  started_ = true;
  sim_->set_handler(EventKind::kReplay, this);
  if (!trace_.empty()) schedule_next();
}

void TraceReplayer::schedule_next() {
  // One pending event at a time keeps the event queue small for large
  // traces; records sharing a timestamp are injected back to back.
  const TimePs due = trace_.records()[next_].time;
  sim_->schedule_event_at(sim_->now() > due ? sim_->now() : due,
                          EventKind::kReplay, /*ch=*/-1);
}

void TraceReplayer::handle_event(const Event& /*e*/) {
  const auto& rs = trace_.records();
  const TimePs due = rs[next_].time;
  while (next_ < rs.size() && rs[next_].time == due) {
    const TraceRecord& r = rs[next_];
    if (r.src != r.dst && r.payload_bytes > 0) {
      net_->inject(r.src, r.dst, r.payload_bytes);
      ++replayed_;
    }
    ++next_;
  }
  if (next_ < rs.size()) schedule_next();
}

}  // namespace itb
