#include "core/route_io.hpp"

#include <array>
#include <ostream>
#include <sstream>

namespace itb {

std::string format_route(const Route& r) {
  std::ostringstream os;
  os << "s" << r.src_switch << "->s" << r.dst_switch
     << " hops=" << r.total_switch_hops << " itbs=" << r.num_itbs()
     << " legs=[";
  for (std::size_t li = 0; li < r.legs.size(); ++li) {
    if (li > 0) os << " | ";
    const RouteLeg& leg = r.legs[li];
    for (std::size_t pi = 0; pi < leg.ports.size(); ++pi) {
      if (pi > 0) os << ",";
      os << "p" << leg.ports[pi];
    }
    if (leg.ports.empty()) os << "-";
    if (leg.end_host != kNoHost) os << " @h" << leg.end_host;
  }
  os << "] via ";
  for (std::size_t i = 0; i < r.switches.size(); ++i) {
    if (i > 0) os << "-";
    os << r.switches[i];
  }
  return os.str();
}

void dump_routes(std::ostream& os, const RouteSet& rs, int min_itbs) {
  for (SwitchId s = 0; s < rs.num_switches(); ++s) {
    for (SwitchId d = 0; d < rs.num_switches(); ++d) {
      const AltsView alts = rs.alternatives(s, d);
      if (alts.empty() || alts.front().num_itbs() < min_itbs) continue;
      for (std::size_t a = 0; a < alts.size(); ++a) {
        os << "alt" << a << " "
           << format_route(rs.materialize(s, d, static_cast<int>(a)))
           << "\n";
      }
    }
  }
}

std::string summarize_route_set(const RouteSet& rs) {
  long routes = 0, pairs = 0;
  std::array<long, 4> by_itbs{};  // 0, 1, 2, 3+
  for (SwitchId s = 0; s < rs.num_switches(); ++s) {
    for (SwitchId d = 0; d < rs.num_switches(); ++d) {
      if (s == d) continue;
      const AltsView alts = rs.alternatives(s, d);
      if (alts.empty()) continue;
      ++pairs;
      routes += static_cast<long>(alts.size());
      for (const RouteView r : alts) {
        ++by_itbs[static_cast<std::size_t>(std::min(r.num_itbs(), 3))];
      }
    }
  }
  std::ostringstream os;
  os << pairs << " pairs, " << routes << " routes; itbs 0/1/2/3+: "
     << by_itbs[0] << "/" << by_itbs[1] << "/" << by_itbs[2] << "/"
     << by_itbs[3];
  return os.str();
}

}  // namespace itb
