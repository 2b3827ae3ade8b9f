// Allocator retention across set-ups.  A long-lived process that builds
// and tears down testbeds one after another must hold only its live data:
// the memory a set-up frees (the pool workers' table staging, the
// workspace's arrays) has to go back to the kernel, not stay resident in
// malloc heaps, such as a pool worker's arena, that the next set-up's
// allocations may never reach.  See sim/memory_policy.hpp.
#include <gtest/gtest.h>

#include <memory>

#include "harness/runner.hpp"
#include "sim/memory_policy.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ITB_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ITB_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace itb {
namespace {

/// One set-up cycle: a HyperX 32x32 (1024 switches, 8192 hosts) with its
/// UP/DOWN table built on two workers, one short point in a fresh
/// workspace, then everything torn down.
void set_up_run_tear_down() {
  const auto tb =
      std::make_unique<Testbed>(make_hyperx({32, 32}, 8), kAutoRoot);
  tb->warm(RoutingScheme::kUpDown, 2);
  UniformPattern pattern(tb->topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.004;
  cfg.warmup = us(5);
  cfg.measure = us(20);
  cfg.checked = false;  // the table's verification is not what is measured
  const auto ws = std::make_unique<SimWorkspace>();
  const RunResult r =
      run_point_in(*ws, *tb, RoutingScheme::kUpDown, pattern, cfg);
  EXPECT_GT(r.delivered, 0u);
}

TEST(MemoryPolicy, RepeatedSetUpReturnsFreedMemory) {
#if !defined(__linux__) || !defined(__GLIBC__)
  GTEST_SKIP() << "measures glibc malloc through /proc/self/status";
#elif defined(ITB_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "sanitizer allocators ignore mallopt";
#else
  ASSERT_TRUE(resident_mb().has_value());
  double after_first = 0.0;
  double after_last = 0.0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    set_up_run_tear_down();
    after_last = resident_mb().value();
    if (cycle == 0) after_first = after_last;
  }
  // Later cycles allocate the same amount again; what they free must not
  // stay resident.
  EXPECT_LT(after_last - after_first, 4.0)
      << "VmRSS after the first teardown " << after_first
      << " MB, after the third " << after_last << " MB";
#endif
}

}  // namespace
}  // namespace itb
