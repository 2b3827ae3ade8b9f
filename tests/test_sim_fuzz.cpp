// Randomised differential tests of the event kernel against reference
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

// Reference: stable-ordered priority queue via (time, seq) pairs.
struct RefQueue {
  using Entry = std::pair<TimePs, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> q;
  std::uint64_t seq = 0;
  void push(TimePs t) { q.emplace(t, seq++); }
  Entry pop() {
    Entry e = q.top();
    q.pop();
    return e;
  }
};

class CalendarQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Differential fuzz of the POD event queue against the reference order,
// deliberately covering the contract's hard cases: bursts of events sharing
// one timestamp (must pop FIFO in push order), pushes beyond the lane
// horizon (land in the heap and stay there until they pop), pushes at the
// current instant (delay 0), idle gaps (the lanes drain, a heap event pops
// and moves the reference time, and the next pushes land near the new
// clock, among heap events already inside the new horizon), the two
// interleaved constant-delay streams of the network model (49.2 and 50 ns),
// more distinct live delays than there are lanes (the surplus goes to the
// heap), and a lane that drains and takes a new key while other lanes hold
// events.
TEST_P(CalendarQueueFuzz, MatchesReferenceOrder) {
  Rng rng(GetParam());
  CalendarQueue q;
  RefQueue ref;
  TimePs now = 0;

  auto push = [&](TimePs t) {
    q.push(t, EventKind::kCallback, /*ch=*/0, /*a=*/0, /*p=*/nullptr);
    ref.push(t);
  };
  auto pop = [&] {
    const Event e = q.pop();
    EXPECT_GE(e.at, now);
    now = e.at;
    const auto [rt, rseq] = ref.pop();
    ASSERT_EQ(e.at, rt);
    ASSERT_EQ(e.seq, rseq);
  };
  for (int op = 0; op < 20000 && !HasFatalFailure(); ++op) {
    const bool do_push = q.empty() || rng.next_bool(0.55);
    if (do_push) {
      const std::uint64_t shape = rng.next_below(14);
      if (shape < 6) {  // near future, up to 5 ns ahead
        push(now + static_cast<TimePs>(rng.next_below(5000)));
      } else if (shape < 8) {  // equal-timestamp burst
        const TimePs t = now + static_cast<TimePs>(rng.next_below(3000));
        const std::uint64_t n = 1 + rng.next_below(6);
        for (std::uint64_t i = 0; i < n; ++i) push(t);
      } else if (shape == 8) {  // same instant as the clock (delay 0)
        push(now);
      } else if (shape == 9) {  // beyond the horizon: heap
        push(now + CalendarQueue::kHorizonPs +
             static_cast<TimePs>(rng.next_below(1u << 20)));
      } else if (shape == 11) {  // interleaved 49.2 and 50 ns streams
        const std::uint64_t n = 1 + rng.next_below(40);
        for (std::uint64_t i = 0; i < n && !HasFatalFailure(); ++i) {
          push(now + (rng.next_bool(0.5) ? 49200 : 50000));
          if (rng.next_bool(0.5)) pop();
        }
      } else if (shape == 12) {  // more distinct delays than lanes
        const std::size_t far_before = q.far_size();
        const TimePs base = 1 + static_cast<TimePs>(rng.next_below(1000));
        const int n = CalendarQueue::kLanes + 1 +
                      static_cast<int>(rng.next_below(8));
        for (int i = 0; i < n; ++i) push(now + base + 6250 * i);
        ASSERT_GT(q.far_size(), far_before);
      } else if (shape == 13) {  // a lane drains and takes a new key
        const TimePs later = now + 400000 +
                             static_cast<TimePs>(rng.next_below(100000));
        push(later);
        push(later + 6250);
        const TimePs t = now + 1 + static_cast<TimePs>(rng.next_below(2000));
        const std::uint64_t n = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < n; ++i) push(t);
        while (q.next_time() <= t && !HasFatalFailure()) pop();
        const std::uint64_t m = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < m; ++i) {
          push(now + 1 + static_cast<TimePs>(rng.next_below(3000)));
        }
      } else {  // 10: drain the lanes, jump past the horizon, push near it
        while (q.size() > q.far_size()) pop();
        push(now + CalendarQueue::kHorizonPs +
             static_cast<TimePs>(rng.next_below(1u << 20)));
        pop();  // from the heap with the lanes empty: moves past the gap
        ASSERT_EQ(q.size(), q.far_size());
        const std::uint64_t n = 1 + rng.next_below(6);
        for (std::uint64_t i = 0; i < n; ++i) {
          push(now + static_cast<TimePs>(rng.next_below(3000)));
        }
        push(now);
        // Fill the new horizon out to its far edge.
        push(now + static_cast<TimePs>(
                       rng.next_below(CalendarQueue::kHorizonPs)));
      }
    } else if (rng.next_bool(0.25)) {
      // A peek must not move the reference time the lanes key on.
      ASSERT_EQ(q.next_time(), ref.q.top().first);
    } else {
      pop();
    }
  }
  while (!q.empty()) {
    const Event e = q.pop();
    const auto [rt, rseq] = ref.pop();
    ASSERT_EQ(e.at, rt);
    ASSERT_EQ(e.seq, rseq);
  }
  EXPECT_TRUE(ref.q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarQueueFuzz,
                         ::testing::Range<std::uint64_t>(500, 510));

TEST(CalendarQueue, EqualTimestampBurstPopsInPushOrder) {
  CalendarQueue q;
  for (std::int32_t i = 0; i < 1000; ++i) {
    q.push(ns(std::int64_t{100}), EventKind::kCallback, i, 0, nullptr);
  }
  for (std::int32_t i = 0; i < 1000; ++i) {
    const Event e = q.pop();
    ASSERT_EQ(e.ch, i) << "simultaneous events must pop FIFO";
    ASSERT_EQ(e.seq, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, MoreDistinctDelaysThanLanesPopInOrder) {
  // 3 x kLanes distinct delays pushed in scrambled order: the first kLanes
  // take one lane each and the rest find no free lane, so they go to the
  // heap.  A repeat of a lane's delay joins that lane; a repeat of a heap
  // event's time goes to the heap behind it.  Pops follow (time, seq)
  // across both stores.
  CalendarQueue q;
  constexpr int kDelays = 3 * CalendarQueue::kLanes;
  std::vector<std::pair<TimePs, std::uint64_t>> expected;
  std::uint64_t seq = 0;
  auto push = [&](TimePs t) {
    q.push(t, EventKind::kCallback, 0, 0, nullptr);
    expected.emplace_back(t, seq++);
  };
  for (int i = 0; i < kDelays; ++i) push(100 + 1000 * ((i * 29) % kDelays));
  EXPECT_EQ(q.far_size(),
            static_cast<std::size_t>(kDelays - CalendarQueue::kLanes));
  const TimePs in_lane = expected.front().first;  // the first push
  const TimePs in_heap = expected.back().first;   // the last push
  push(in_lane);
  push(in_heap);
  EXPECT_EQ(q.far_size(),
            static_cast<std::size_t>(kDelays - CalendarQueue::kLanes + 1));
  std::sort(expected.begin(), expected.end());
  for (const auto& [t, s] : expected) {
    const Event e = q.pop();
    ASSERT_EQ(e.at, t);
    ASSERT_EQ(e.seq, s);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.far_pops(),
            static_cast<std::uint64_t>(kDelays - CalendarQueue::kLanes + 1));
}

TEST(CalendarQueue, TracksPeakSize) {
  CalendarQueue q;
  for (int i = 0; i < 64; ++i) {
    q.push(static_cast<TimePs>(i), EventKind::kCallback, 0, 0, nullptr);
  }
  for (int i = 0; i < 40; ++i) q.pop();
  q.push(1000, EventKind::kCallback, 0, 0, nullptr);
  EXPECT_EQ(q.size(), 25u);
  EXPECT_EQ(q.peak_size(), 64u);
}

// ---------------------------------------------------------------------------
// Checked-mode traffic fuzz: 300 randomized short simulations — scheme,
// pattern, load, payload size, arrival process and RNG seed all drawn from
// the seed — each with full deep checking on (route verification, deadlock
// watchdog, end-of-window conservation audit, causality ledger).  One
// violation anywhere fails with the recorded detail.  This is the sweep
// that turns the invariant layer into a property-based test of the whole
// engine: whatever state the randomized workload reaches, flits, credits,
// buffers and packets stay conserved.

class CheckedTrafficFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // One shared testbed: routing tables are verified once (clean tables are
  // memoised by the harness) and reused by all 300 instances.
  static const Testbed& testbed() {
    static const Testbed tb(make_torus_2d(4, 4, 2));
    return tb;
  }
};

TEST_P(CheckedTrafficFuzz, RandomWorkloadRunsViolationFree) {
  const std::uint64_t seed = GetParam();
  const Testbed& tb = testbed();
  Rng pick(seed * 0x9e3779b97f4a7c15ull + 1);

  const RoutingScheme schemes[] = {RoutingScheme::kUpDown,
                                   RoutingScheme::kItbSp,
                                   RoutingScheme::kItbRr};
  const RoutingScheme scheme = schemes[pick.next_below(3)];

  const int hosts = tb.topo().num_hosts();
  std::unique_ptr<DestinationPattern> pattern;
  switch (pick.next_below(3)) {
    case 0:
      pattern = std::make_unique<UniformPattern>(hosts);
      break;
    case 1:
      pattern = std::make_unique<BitReversalPattern>(hosts);
      break;
    default:
      pattern = std::make_unique<LocalPattern>(tb.topo(), 3);
      break;
  }

  RunConfig cfg;
  cfg.checked = true;
  cfg.seed = seed;
  // Loads from deep linear region to past saturation.
  const double loads[] = {0.002, 0.01, 0.03, 0.08, 0.2};
  cfg.load_flits_per_ns_per_switch = loads[pick.next_below(5)];
  // Payloads stay at or above 128 bytes: packets that fit entirely in the
  // 80-flit slack buffer hit the known sub-chunk-tail skid overrun, which
  // is characterized separately (SlackSkid in test_invariants.cpp).
  const int payloads[] = {128, 256, 512, 1024, 4096};
  cfg.payload_bytes = payloads[pick.next_below(5)];
  cfg.poisson = pick.next_bool(0.5);
  cfg.warmup = us(5);
  cfg.measure = us(15 + pick.next_below(15));

  const RunResult r = run_point(tb, scheme, *pattern, cfg);
  EXPECT_TRUE(r.checked);
  EXPECT_EQ(r.fc_violations, 0u);
  EXPECT_EQ(r.invariant_violations, 0u)
      << to_string(scheme) << "/" << pattern->name() << "/load="
      << cfg.load_flits_per_ns_per_switch << "/payload=" << cfg.payload_bytes
      << (cfg.poisson ? "/poisson" : "/cbr") << ": first violation: "
      << (r.violations.empty() ? std::string("<none stored>")
                               : r.violations.front().detail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckedTrafficFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1300));

TEST(SimulatorFuzz, NestedSchedulingKeepsCausality) {
  // Events schedule further events at random offsets; time must never go
  // backwards and every scheduled event must fire exactly once.
  Simulator sim;
  Rng rng(99);
  int fired = 0;
  int scheduled = 1;
  TimePs last = -1;
  std::function<void(int)> spawn = [&](int depth) {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
    ++fired;
    if (depth >= 6) return;
    const int kids = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < kids; ++i) {
      ++scheduled;
      sim.schedule_in(static_cast<TimePs>(rng.next_below(1000)),
                      [&spawn, depth] { spawn(depth + 1); });
    }
  };
  sim.schedule_in(0, [&spawn] { spawn(0); });
  sim.run_until();
  EXPECT_EQ(fired, scheduled);
}

TEST(SimulatorFuzz, RunUntilChunksEquivalentToOneShot) {
  // Driving the same workload in many small run_until slices must produce
  // the same event count and final clock as a single call.
  auto build = [](Simulator& sim, int* counter) {
    for (int i = 0; i < 500; ++i) {
      sim.schedule_at(i * 997, [counter] { ++*counter; });
    }
  };
  Simulator a;
  int ca = 0;
  build(a, &ca);
  a.run_until(ms(1));

  Simulator b;
  int cb = 0;
  build(b, &cb);
  for (TimePs t = 10000; t <= ms(1); t += 10000) b.run_until(t);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.events_executed(), b.events_executed());
}

}  // namespace
}  // namespace itb
