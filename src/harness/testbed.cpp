#include "harness/testbed.hpp"

#include "check/route_verify.hpp"
#include "core/route_builder.hpp"
#include "route/topo_minimal.hpp"
#include "sim/memory_policy.hpp"

namespace itb {

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
          *topo_, root == kAutoRoot ? select_updown_root(*topo_) : root)) {
  // Every set-up and run goes through a Testbed, so this is the one place
  // the process's malloc policy is set (see sim/memory_policy.hpp).
  static const bool policy_applied = (apply_memory_policy(), true);
  (void)policy_applied;
}

Testbed::Testbed(Testbed&& other) noexcept
    : topo_(std::move(other.topo_)),
      updown_(std::move(other.updown_)),
      updown_table_(std::move(other.updown_table_)),
      itb_table_(std::move(other.itb_table_)),
      minimal_table_(std::move(other.minimal_table_)) {}

Testbed& Testbed::operator=(Testbed&& other) noexcept {
  if (this != &other) {
    topo_ = std::move(other.topo_);
    updown_ = std::move(other.updown_);
    updown_table_ = std::move(other.updown_table_);
    itb_table_ = std::move(other.itb_table_);
    minimal_table_ = std::move(other.minimal_table_);
  }
  return *this;
}

Testbed::Table& Testbed::table_locked(RoutingScheme s, int jobs) const {
  if (s == RoutingScheme::kUpDown) {
    if (!updown_table_.routes) {
      const SimpleRoutes sr(*topo_, *updown_, {}, jobs);
      updown_table_.routes.emplace(build_updown_routes(*topo_, sr, jobs));
    }
    return updown_table_;
  }
  if (s == RoutingScheme::kMinimal) {
    if (!minimal_table_.routes) {
      // Throws on generic topologies: MIN needs a structured shape.
      minimal_table_.routes.emplace(build_minimal_routes(*topo_, jobs));
    }
    return minimal_table_;
  }
  if (!itb_table_.routes) {
    itb_table_.routes.emplace(build_itb_routes(*topo_, *updown_, {}, jobs));
  }
  return itb_table_;
}

const RouteSet& Testbed::routes_with_jobs(RoutingScheme s, int jobs) const {
  std::lock_guard<std::mutex> lock(build_mu_);
  return *table_locked(s, jobs).routes;
}

const std::vector<InvariantViolation>& Testbed::route_violations(
    RoutingScheme s) const {
  std::lock_guard<std::mutex> lock(build_mu_);
  Table& t = table_locked(s, default_jobs());
  if (!t.violations) {
    t.violations = verify_route_set(*topo_, *updown_, *t.routes).violations;
  }
  return *t.violations;
}

void Testbed::warm_all(int jobs) const {
  warm(RoutingScheme::kUpDown, jobs);
  warm(RoutingScheme::kItbSp, jobs);  // shared by all ITB schemes
  if (has_structured_minimal(topo())) warm(RoutingScheme::kMinimal, jobs);
}

}  // namespace itb
