#include "check/watchdog.hpp"

#include <string>

namespace itb {

namespace {

/// Iterative three-colour DFS over an adjacency list; fills `cycle` with
/// the first back-edge cycle found and returns true.
bool find_cycle(const std::vector<std::vector<ChannelId>>& adj,
                std::vector<ChannelId>& cycle) {
  const std::size_t n = adj.size();
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> colour(n, kWhite);
  std::vector<ChannelId> stack;          // current DFS path (grey nodes)
  std::vector<std::size_t> next_child;   // per stack frame
  for (std::size_t root = 0; root < n; ++root) {
    if (colour[root] != kWhite) continue;
    stack.assign(1, static_cast<ChannelId>(root));
    next_child.assign(1, 0);
    colour[root] = kGrey;
    while (!stack.empty()) {
      const auto u = static_cast<std::size_t>(stack.back());
      if (next_child.back() < adj[u].size()) {
        const ChannelId v = adj[u][next_child.back()++];
        const auto vi = static_cast<std::size_t>(v);
        if (colour[vi] == kGrey) {
          // Back edge: the cycle is the stack suffix starting at v.
          auto it = stack.begin();
          while (*it != v) ++it;
          cycle.assign(it, stack.end());
          return true;
        }
        if (colour[vi] == kWhite) {
          colour[vi] = kGrey;
          stack.push_back(v);
          next_child.push_back(0);
        }
      } else {
        colour[u] = kBlack;
        stack.pop_back();
        next_child.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

DeadlockWatchdog::DeadlockWatchdog(Simulator& sim, Network& net, TimePs period)
    : sim_(&sim), net_(&net), period_(period) {
  sim_->set_handler(EventKind::kWatchdogTick, this);
  sim_->schedule_event_in(period_, EventKind::kWatchdogTick, /*ch=*/-1);
}

void DeadlockWatchdog::handle_event(const Event& /*e*/) {
  if (!armed_) return;
  sample();
  sim_->schedule_event_in(period_, EventKind::kWatchdogTick, /*ch=*/-1);
}

bool DeadlockWatchdog::sample() {
  const auto edges = net_->wait_graph_edges();
  if (edges.empty()) return false;
  std::vector<std::vector<ChannelId>> adj(
      static_cast<std::size_t>(net_->topology().num_channels()));
  for (const auto& [from, to] : edges) {
    adj[static_cast<std::size_t>(from)].push_back(to);
  }
  std::vector<ChannelId> cycle;
  if (!find_cycle(adj, cycle)) return false;
  ++cycles_found_;
  last_cycle_ = cycle;
  if (!reported_) {
    reported_ = true;
    std::string detail = "wait-graph cycle:";
    for (const ChannelId c : cycle) {
      detail += ' ';
      detail += net_->channel_label(c);
      detail += " ->";
    }
    detail += ' ';
    detail += net_->channel_label(cycle.front());
    net_->invariants().record(InvariantKind::kDeadlockCycle, sim_->now(),
                              cycle.front(), std::move(detail));
  }
  return true;
}

}  // namespace itb
