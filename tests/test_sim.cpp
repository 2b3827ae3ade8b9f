// Unit tests for the discrete-event kernel: calendar queue edges, simulator
// clock semantics, RNG determinism and distribution sanity, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace itb {
namespace {

TEST(Time, ConversionsAreExact) {
  EXPECT_EQ(ns(std::int64_t{150}), 150000);
  EXPECT_EQ(ns(6.25), 6250);
  EXPECT_EQ(ns(4.92), 4920);
  EXPECT_EQ(us(std::int64_t{1}), 1000000);
  EXPECT_EQ(ms(std::int64_t{1}), 1000000000);
  EXPECT_DOUBLE_EQ(to_ns(6250), 6.25);
}

// --- CalendarQueue boundary behaviour -------------------------------------
// The parallel engine leans on pop_if_at_most at its window deadlines, so
// the edges matter: a deadline exactly on a bucket boundary, and events
// sitting exactly at the near-ring horizon (the near/far split).

TEST(CalendarQueue, NextTimeReportsHead) {
  // next_time() is what run_until pins the clock against once the queue
  // idles: kTimeNever when empty, otherwise the earliest event wherever it
  // lives (near ring or far heap).
  CalendarQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
  q.push(CalendarQueue::kHorizonPs + 5, EventKind::kCallback, 0, 0, nullptr);
  EXPECT_EQ(q.next_time(), CalendarQueue::kHorizonPs + 5);
  q.push(99, EventKind::kCallback, 1, 0, nullptr);
  EXPECT_EQ(q.next_time(), 99);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), CalendarQueue::kHorizonPs + 5);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(CalendarQueue, PopIfAtMostIsInclusiveAtBucketEdge) {
  CalendarQueue q;
  const TimePs width = TimePs{1} << CalendarQueue::kWidthBits;
  // Last picosecond of bucket 0 and first of bucket 1.
  q.push(width - 1, EventKind::kCallback, 0, 0, nullptr);
  q.push(width, EventKind::kCallback, 1, 0, nullptr);

  Event e;
  // A deadline one below the first event leaves the queue untouched.
  EXPECT_FALSE(q.pop_if_at_most(width - 2, e));
  EXPECT_EQ(q.size(), 2u);
  // A deadline exactly on the event's time pops it (inclusive contract,
  // same as Simulator::run_until), but not its bucket-1 neighbour.
  ASSERT_TRUE(q.pop_if_at_most(width - 1, e));
  EXPECT_EQ(e.at, width - 1);
  EXPECT_FALSE(q.pop_if_at_most(width - 1, e));
  ASSERT_TRUE(q.pop_if_at_most(width, e));
  EXPECT_EQ(e.at, width);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopIfAtMostAtTheNearFarHorizon) {
  CalendarQueue q;
  // kHorizonPs falls outside the near ring when base_ is at zero, so this
  // event lands in the far heap; its neighbour one ps earlier lands in the
  // ring's last bucket.
  q.push(CalendarQueue::kHorizonPs, EventKind::kCallback, 7, 0, nullptr);
  q.push(CalendarQueue::kHorizonPs - 1, EventKind::kCallback, 8, 0, nullptr);

  Event e;
  ASSERT_TRUE(q.pop_if_at_most(CalendarQueue::kHorizonPs - 1, e));
  EXPECT_EQ(e.at, CalendarQueue::kHorizonPs - 1);
  EXPECT_EQ(e.ch, 8);
  // The far event must not pop below its time...
  EXPECT_FALSE(q.pop_if_at_most(CalendarQueue::kHorizonPs - 1, e));
  // ...and must pop at exactly its time, straight from the heap (far
  // events are never migrated into the ring).
  ASSERT_TRUE(q.pop_if_at_most(CalendarQueue::kHorizonPs, e));
  EXPECT_EQ(e.ch, 7);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EqualTimesAcrossTheHorizonPopInPushOrder) {
  CalendarQueue q;
  const TimePs horizon = CalendarQueue::kHorizonPs;
  // First push at the horizon goes far (base_ = 0).  Popping the filler
  // advances base_ to the ring's last bucket, so the SECOND push at the
  // very same time lands in the near ring.  The (time, seq) contract must
  // still pop them in push order across the two stores.
  q.push(horizon, EventKind::kCallback, 1, 0, nullptr);    // far, seq 0
  q.push(horizon - 1, EventKind::kCallback, 0, 0, nullptr);  // near filler
  Event e;
  ASSERT_TRUE(q.pop_if_at_most(horizon - 1, e));
  q.push(horizon, EventKind::kCallback, 2, 0, nullptr);    // near, seq 2
  ASSERT_TRUE(q.pop_if_at_most(horizon, e));
  EXPECT_EQ(e.ch, 1);  // the far event pushed first wins the tie
  ASSERT_TRUE(q.pop_if_at_most(horizon, e));
  EXPECT_EQ(e.ch, 2);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ClockFollowsEvents) {
  Simulator sim;
  TimePs seen = -1;
  sim.schedule_in(100, [&] { seen = sim.now(); });
  sim.run_until();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.schedule_at(201, [&] { ++fired; });
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
  sim.run_until(300);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, DeadlineAdvancesClockWhenQueueIdle) {
  Simulator sim;
  sim.run_until(5000);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(10, chain);
  };
  sim.schedule_in(10, chain);
  sim.run_until();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunWhilePredicateStops) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.schedule_in(i, [&] { ++count; });
  sim.run_while([&] { return count < 7; });
  EXPECT_EQ(count, 7);
}

TEST(Simulator, RequestStopHaltsLoop) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    sim.schedule_in(i, [&] {
      if (++count == 5) sim.request_stop();
    });
  }
  sim.run_until();
  EXPECT_EQ(count, 5);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(42);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (const int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(250.0);
  EXPECT_NEAR(sum / kDraws, 250.0, 5.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork(1);
  Rng a2(5);
  Rng child2 = a2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // Different salts diverge.
  Rng b(5);
  Rng other = b.fork(2);
  int same = 0;
  Rng c(5);
  Rng base = c.fork(1);
  for (int i = 0; i < 100; ++i) {
    if (base.next_u64() == other.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RunningStats, MeanVarMinMax) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100.0;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, QuantilesBracketData) {
  Histogram h(10.0, 100);
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i % 100) * 10.0);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 500.0, 20.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 20.0);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, OverflowCounted) {
  Histogram h(1.0, 10);
  h.add(5.0);
  h.add(100.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 2u);
}

}  // namespace
}  // namespace itb
