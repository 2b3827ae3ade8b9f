#include "harness/testbed.hpp"

#include <atomic>

#include "core/route_builder.hpp"
#include "route/topo_minimal.hpp"

namespace itb {

namespace {
/// Source of table generation ids; 0 is reserved for "not built yet".
std::atomic<std::uint64_t> g_table_generation{0};
}  // namespace

const char* to_string(RoutingScheme s) {
  switch (s) {
    case RoutingScheme::kUpDown: return "UP/DOWN";
    case RoutingScheme::kItbSp: return "ITB-SP";
    case RoutingScheme::kItbRr: return "ITB-RR";
    case RoutingScheme::kItbRnd: return "ITB-RND";
    case RoutingScheme::kItbAdapt: return "ITB-ADAPT";
    case RoutingScheme::kMinimal: return "MIN";
  }
  return "?";
}

PathPolicy policy_of(RoutingScheme s) {
  switch (s) {
    case RoutingScheme::kUpDown:
    case RoutingScheme::kMinimal:
    case RoutingScheme::kItbSp: return PathPolicy::kSingle;
    case RoutingScheme::kItbRr: return PathPolicy::kRoundRobin;
    case RoutingScheme::kItbRnd: return PathPolicy::kRandom;
    case RoutingScheme::kItbAdapt: return PathPolicy::kAdaptive;
  }
  return PathPolicy::kSingle;
}

Testbed::Testbed(Topology topo, SwitchId root)
    : topo_(std::make_unique<Topology>(std::move(topo))),
      updown_(std::make_unique<UpDown>(
          *topo_, root == kAutoRoot ? select_updown_root(*topo_) : root)) {}

Testbed::Testbed(Testbed&& other) noexcept
    : topo_(std::move(other.topo_)),
      updown_(std::move(other.updown_)),
      updown_routes_(std::move(other.updown_routes_)),
      itb_routes_(std::move(other.itb_routes_)),
      minimal_routes_(std::move(other.minimal_routes_)),
      updown_gen_(other.updown_gen_),
      itb_gen_(other.itb_gen_),
      minimal_gen_(other.minimal_gen_) {}

Testbed& Testbed::operator=(Testbed&& other) noexcept {
  if (this != &other) {
    topo_ = std::move(other.topo_);
    updown_ = std::move(other.updown_);
    updown_routes_ = std::move(other.updown_routes_);
    itb_routes_ = std::move(other.itb_routes_);
    minimal_routes_ = std::move(other.minimal_routes_);
    updown_gen_ = other.updown_gen_;
    itb_gen_ = other.itb_gen_;
    minimal_gen_ = other.minimal_gen_;
  }
  return *this;
}

const RouteSet& Testbed::routes_with_jobs(RoutingScheme s, int jobs) const {
  std::lock_guard<std::mutex> lock(build_mu_);
  if (s == RoutingScheme::kUpDown) {
    if (!updown_routes_) {
      const SimpleRoutes sr(*topo_, *updown_, {}, jobs);
      updown_routes_.emplace(build_updown_routes(*topo_, sr, jobs));
      updown_gen_ = ++g_table_generation;
    }
    return *updown_routes_;
  }
  if (s == RoutingScheme::kMinimal) {
    if (!minimal_routes_) {
      // Throws on generic topologies: MIN needs a structured shape.
      minimal_routes_.emplace(build_minimal_routes(*topo_, jobs));
      minimal_gen_ = ++g_table_generation;
    }
    return *minimal_routes_;
  }
  if (!itb_routes_) {
    itb_routes_.emplace(build_itb_routes(*topo_, *updown_, {}, jobs));
    itb_gen_ = ++g_table_generation;
  }
  return *itb_routes_;
}

std::uint64_t Testbed::table_generation(RoutingScheme s) const {
  (void)routes(s);  // ensure the table (and its id) exists
  std::lock_guard<std::mutex> lock(build_mu_);
  if (s == RoutingScheme::kUpDown) return updown_gen_;
  if (s == RoutingScheme::kMinimal) return minimal_gen_;
  return itb_gen_;
}

void Testbed::warm_all(int jobs) const {
  warm(RoutingScheme::kUpDown, jobs);
  warm(RoutingScheme::kItbSp, jobs);  // shared by all ITB schemes
  if (has_structured_minimal(topo())) warm(RoutingScheme::kMinimal, jobs);
}

}  // namespace itb
