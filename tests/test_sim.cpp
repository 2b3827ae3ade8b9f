// Unit tests for the discrete-event kernel: calendar queue edges, simulator
// clock semantics, RNG determinism and distribution sanity, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/arena.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "support/test_handler.hpp"

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
// run_until pops with pop_if_at_most against its deadline, so the edges
// matter: a deadline exactly on an event's time, and events sitting exactly
// at the lane horizon (the lane/heap split).

TEST(CalendarQueue, NextTimeReportsHead) {
  // next_time() is what run_until pins the clock against once the queue
  // idles: kTimeNever when empty, otherwise the earliest event wherever it
  // lives (a lane or the heap).
  CalendarQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
  q.push(CalendarQueue::kHorizonPs + 5, EventKind::kChunkSent, 0, 0, nullptr);
  EXPECT_EQ(q.next_time(), CalendarQueue::kHorizonPs + 5);
  q.push(99, EventKind::kChunkSent, 1, 0, nullptr);
  EXPECT_EQ(q.next_time(), 99);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), CalendarQueue::kHorizonPs + 5);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(CalendarQueue, PopIfAtMostIsInclusiveAtBucketEdge) {
  CalendarQueue q;
  // Two events one picosecond apart (the last and first picosecond of two
  // 1024 ps buckets in the former calendar ring).
  const TimePs first = 1023;
  const TimePs second = 1024;
  q.push(first, EventKind::kChunkSent, 0, 0, nullptr);
  q.push(second, EventKind::kChunkSent, 1, 0, nullptr);

  Event e;
  // A deadline one below the first event leaves the queue untouched.
  EXPECT_FALSE(q.pop_if_at_most(first - 1, e));
  EXPECT_EQ(q.size(), 2u);
  // A deadline exactly on the event's time pops it (inclusive contract,
  // same as Simulator::run_until), but not its neighbour one ps later.
  ASSERT_TRUE(q.pop_if_at_most(first, e));
  EXPECT_EQ(e.at, first);
  EXPECT_FALSE(q.pop_if_at_most(first, e));
  ASSERT_TRUE(q.pop_if_at_most(second, e));
  EXPECT_EQ(e.at, second);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopIfAtMostAtTheNearFarHorizon) {
  CalendarQueue q;
  // With nothing popped yet the delay of an event is its time, so the one
  // at kHorizonPs lands in the heap and its neighbour one ps earlier, the
  // longest delay a lane takes, lands in a lane.
  q.push(CalendarQueue::kHorizonPs, EventKind::kChunkSent, 7, 0, nullptr);
  q.push(CalendarQueue::kHorizonPs - 1, EventKind::kChunkSent, 8, 0, nullptr);

  Event e;
  ASSERT_TRUE(q.pop_if_at_most(CalendarQueue::kHorizonPs - 1, e));
  EXPECT_EQ(e.at, CalendarQueue::kHorizonPs - 1);
  EXPECT_EQ(e.ch, 8);
  // The far event must not pop below its time...
  EXPECT_FALSE(q.pop_if_at_most(CalendarQueue::kHorizonPs - 1, e));
  // ...and must pop at exactly its time, straight from the heap (heap
  // events are never migrated into a lane).
  ASSERT_TRUE(q.pop_if_at_most(CalendarQueue::kHorizonPs, e));
  EXPECT_EQ(e.ch, 7);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EqualTimesAcrossTheHorizonPopInPushOrder) {
  CalendarQueue q;
  const TimePs horizon = CalendarQueue::kHorizonPs;
  // First push at the horizon goes to the heap (nothing popped yet, so its
  // delay is the horizon).  Popping the filler moves the reference time to
  // horizon - 1, so the SECOND push at the very same time is 1 ps ahead and
  // lands in a lane.  The (time, seq) contract must still pop them in push
  // order across the two stores.
  q.push(horizon, EventKind::kChunkSent, 1, 0, nullptr);    // heap, seq 0
  q.push(horizon - 1, EventKind::kChunkSent, 0, 0, nullptr);  // lane filler
  Event e;
  ASSERT_TRUE(q.pop_if_at_most(horizon - 1, e));
  q.push(horizon, EventKind::kChunkSent, 2, 0, nullptr);    // lane, seq 2
  ASSERT_TRUE(q.pop_if_at_most(horizon, e));
  EXPECT_EQ(e.ch, 1);  // the heap event pushed first wins the tie
  ASSERT_TRUE(q.pop_if_at_most(horizon, e));
  EXPECT_EQ(e.ch, 2);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, RingIsReusedAfterAnIdleGapPastTheHorizon) {
  CalendarQueue q;
  const TimePs horizon = CalendarQueue::kHorizonPs;
  // The lanes drain at t = 100; the next event lies past the horizon, so
  // it waits in the heap.
  q.push(100, EventKind::kChunkSent, 0, 0, nullptr);
  EXPECT_EQ(q.pop().ch, 0);
  const TimePs later = 100 + 3 * horizon + 7;
  q.push(later, EventKind::kChunkSent, 1, 0, nullptr);
  EXPECT_EQ(q.far_size(), 1u);
  // Popping it moves the reference time to `later`...
  const Event gap = q.pop();
  EXPECT_EQ(gap.ch, 1);
  EXPECT_EQ(q.far_pops(), 1u);
  // ...so what it schedules within the horizon lands in lanes: the
  // current instant, an equal-timestamp pair and the horizon's middle.
  q.push(later + 500, EventKind::kChunkSent, 2, 0, nullptr);
  q.push(later, EventKind::kChunkSent, 3, 0, nullptr);
  q.push(later + 500, EventKind::kChunkSent, 4, 0, nullptr);
  q.push(later + horizon / 2, EventKind::kChunkSent, 5, 0, nullptr);
  q.push(later + 20, EventKind::kChunkSent, 6, 0, nullptr);
  EXPECT_EQ(q.far_size(), 0u);
  std::vector<std::int32_t> order;
  TimePs last = later;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.at, last);
    last = e.at;
    order.push_back(e.ch);
  }
  EXPECT_EQ(order, (std::vector<std::int32_t>{3, 6, 2, 4, 5}));
  EXPECT_EQ(q.far_pops(), 1u);
}

TEST(CalendarQueue, PeekAcrossAnIdleGapDoesNotReanchor) {
  CalendarQueue q;
  const TimePs horizon = CalendarQueue::kHorizonPs;
  const TimePs later = 3 * horizon;
  q.push(later, EventKind::kChunkSent, 0, 0, nullptr);
  // Neither a peek nor a refused pop moves the reference time: nothing has
  // popped, so an event just after `later` is still beyond the horizon.
  EXPECT_EQ(q.next_time(), later);
  Event e;
  EXPECT_FALSE(q.pop_if_at_most(later - 1, e));
  q.push(later + 100, EventKind::kChunkSent, 1, 0, nullptr);
  EXPECT_EQ(q.far_size(), 2u);
  // An earlier event still goes to a lane and pops first.
  q.push(10, EventKind::kChunkSent, 2, 0, nullptr);
  EXPECT_EQ(q.far_size(), 2u);
  EXPECT_EQ(q.pop().ch, 2);
  EXPECT_EQ(q.pop().ch, 0);
  EXPECT_EQ(q.pop().ch, 1);
  EXPECT_EQ(q.far_pops(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ClockFollowsEvents) {
  Simulator sim;
  TimePs seen = -1;
  TestHandler h(sim, EventKind::kGenTick,
                [&](const Event&) { seen = sim.now(); });
  sim.schedule_event_in(100, EventKind::kGenTick, -1);
  sim.run_until();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int fired = 0;
  TestHandler h(sim, EventKind::kGenTick, [&](const Event&) { ++fired; });
  sim.schedule_event_at(100, EventKind::kGenTick, -1);
  sim.schedule_event_at(200, EventKind::kGenTick, -1);
  sim.schedule_event_at(201, EventKind::kGenTick, -1);
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
  // Each event carries its nesting depth in `a` and schedules the next.
  Simulator sim;
  int depth = 0;
  TestHandler h(sim, EventKind::kGenTick, [&](const Event& e) {
    depth = e.a;
    if (depth < 10) {
      sim.schedule_event_in(10, EventKind::kGenTick, -1, depth + 1);
    }
  });
  sim.schedule_event_in(10, EventKind::kGenTick, -1, 1);
  sim.run_until();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, DispatchesEachKindToItsHandler) {
  // Every kind goes to the handler registered for it and to no other.
  Simulator sim;
  std::vector<std::vector<int>> seen(kEventKinds);
  auto record = [&](const Event& e) {
    seen[static_cast<std::size_t>(e.kind)].push_back(e.a);
  };
  using Handler = TestHandler<decltype(record)>;
  std::vector<std::unique_ptr<Handler>> handlers;
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    handlers.push_back(
        std::make_unique<Handler>(sim, static_cast<EventKind>(k), record));
  }
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(sim.handler(kind), handlers[k].get());
    // Kinds interleave in time: kind k fires at k and 100 + k.
    sim.schedule_event_at(100 + static_cast<TimePs>(k), kind, -1,
                          static_cast<int>(k) + 100);
    sim.schedule_event_at(static_cast<TimePs>(k), kind, -1,
                          static_cast<int>(k));
  }
  EXPECT_EQ(sim.run_until(), 2 * kEventKinds);
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    const int i = static_cast<int>(k);
    EXPECT_EQ(seen[k], (std::vector<int>{i, i + 100})) << "kind " << k;
  }
}

TEST(Simulator, ResetClearsHandlers) {
  // A reset simulator holds no handler, so a reused one can take a new
  // owner for each kind (one per kind is asserted by set_handler).
  Simulator sim;
  int first = 0;
  int second = 0;
  TestHandler a(sim, EventKind::kReplay, [&](const Event&) { ++first; });
  EXPECT_EQ(sim.handler(EventKind::kReplay), &a);
  // Until then a second handler for the kind is a wiring bug.
  EXPECT_DEBUG_DEATH(
      TestHandler(sim, EventKind::kReplay, [](const Event&) {}),
      "slot == nullptr");
  sim.set_handler(EventKind::kReplay, &a);
  sim.schedule_event_in(5, EventKind::kReplay, -1);
  sim.reset();
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    EXPECT_EQ(sim.handler(static_cast<EventKind>(k)), nullptr) << k;
  }
  TestHandler b(sim, EventKind::kReplay, [&](const Event&) { ++second; });
  EXPECT_EQ(sim.handler(EventKind::kReplay), &b);
  sim.schedule_event_in(5, EventKind::kReplay, -1);
  sim.run_until();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
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

TEST(Histogram, TailQuantilesWithinOnePercent) {
  // The collector's shape: 100 ns buckets up to 1 ms, then the tail.
  Histogram h(100.0, 10000);
  for (int i = 0; i < 50; ++i) h.add(5e6);  // 5 ms
  for (int i = 0; i < 50; ++i) h.add(2e9);  // 2 s
  EXPECT_EQ(h.overflow(), 100u);
  const double lo = h.quantile(0.25);
  const double hi = h.quantile(0.99);
  EXPECT_GE(lo, 5e6);
  EXPECT_LE(lo, 5e6 * 1.01);
  EXPECT_GE(hi, 2e9);
  EXPECT_LE(hi, 2e9 * 1.01);
  // The linear range is untouched by the tail.
  h.clear();
  h.add(250.0);
  EXPECT_EQ(h.quantile(0.5), 300.0);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Arena, RewoundBlocksArePoisonedUnderAsan) {
#ifndef ITB_ARENA_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  // Only the bytes handed out since the last rewind are addressable, so a
  // spilled buffer or rotation row kept across a rewind faults when read.
  Arena arena;
  auto* a = static_cast<std::byte*>(arena.allocate(100));  // 112 after round-up
  EXPECT_FALSE(__asan_address_is_poisoned(a));
  EXPECT_FALSE(__asan_address_is_poisoned(a + 111));
  EXPECT_TRUE(__asan_address_is_poisoned(a + 112));
  arena.rewind();
  EXPECT_TRUE(__asan_address_is_poisoned(a));
  EXPECT_TRUE(__asan_address_is_poisoned(a + 111));
  auto* b = static_cast<std::byte*>(arena.allocate(16));
  ASSERT_EQ(b, a);  // the retained block is reused
  EXPECT_FALSE(__asan_address_is_poisoned(b + 15));
  EXPECT_TRUE(__asan_address_is_poisoned(b + 16));
#endif
}

}  // namespace
}  // namespace itb
