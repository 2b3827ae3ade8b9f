// ShortQueue<T, N>: inline storage for N elements, arena spill past it.
// The engine's per-channel and per-NIC queues rely on its growth being a
// pure function of the element counts (workspace-reuse determinism) and on
// reset() dropping a spill without touching the arena that holds it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/arena.hpp"
#include "sim/rng.hpp"
#include "sim/short_queue.hpp"

namespace itb {
namespace {

using Queue = ShortQueue<std::uint32_t, 4>;

std::vector<std::uint32_t> contents(const Queue& q) {
  return {q.begin(), q.end()};
}

TEST(ShortQueue, SpillsToTheArenaAtNPlusOne) {
  Arena arena;
  Queue q;
  q.reset();
  for (std::uint32_t v = 0; v < 4; ++v) q.push_back(v, arena);
  EXPECT_EQ(arena.bytes_in_use(), 0u);  // N elements stay inline
  q.push_back(4, arena);
  // The (N+1)-th element doubles the buffer into the arena.
  EXPECT_EQ(arena.bytes_in_use(), 8 * sizeof(std::uint32_t));
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  for (std::uint32_t v = 5; v < 8; ++v) q.push_back(v, arena);
  EXPECT_EQ(arena.bytes_in_use(), 8 * sizeof(std::uint32_t));
  q.push_back(8, arena);  // and again at 2N + 1
  EXPECT_EQ(arena.bytes_in_use(), 24 * sizeof(std::uint32_t));
  EXPECT_EQ(q.size(), 9u);
  EXPECT_EQ(q.front(), 0u);
  EXPECT_EQ(q.back(), 8u);
}

TEST(ShortQueue, SlidesToTheFrontWhenAtMostHalfIsLive) {
  Arena arena;
  Queue q;
  q.reset();
  for (std::uint32_t v = 0; v < 4; ++v) q.push_back(v, arena);
  const std::uint32_t* slot0 = &q.front();
  q.pop_front();
  q.pop_front();
  // Two of four slots live: the push slides them to the front instead of
  // growing.
  q.push_back(4, arena);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(&q.front(), slot0);
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{2, 3, 4}));

  // Three of four live is more than half: the push grows into the arena.
  Queue r;
  r.reset();
  for (std::uint32_t v = 0; v < 4; ++v) r.push_back(v, arena);
  r.pop_front();
  r.push_back(4, arena);
  EXPECT_EQ(arena.bytes_in_use(), 8 * sizeof(std::uint32_t));
  EXPECT_EQ(contents(r), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(ShortQueue, EraseShiftsTheTailLeft) {
  Arena arena;
  Queue q;
  q.reset();
  for (std::uint32_t v = 0; v < 6; ++v) q.push_back(v, arena);  // spilled
  const std::uint32_t* base = q.begin();
  q.pop_front();
  q.erase(q.begin() + 2);  // the 3
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{1, 2, 4, 5}));
  q.erase(q.end() - 1);
  q.erase(q.begin());
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{2, 4}));
  q.erase(q.begin());
  q.erase(q.begin());
  EXPECT_TRUE(q.empty());
  // Erasing the last element rewinds the cursors like pop_front does.
  q.push_back(9, arena);
  EXPECT_EQ(&q.front(), base);
}

TEST(ShortQueue, PopToEmptyResetsTheCursors) {
  Arena arena;
  Queue q;
  q.reset();
  q.push_back(0, arena);
  const std::uint32_t* slot0 = &q.front();
  q.push_back(1, arena);
  q.push_back(2, arena);
  q.pop_front();
  q.pop_front();
  q.pop_front();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // The next element lands in the first slot again, so N more pushes fit
  // without a slide or a spill.
  q.push_back(7, arena);
  EXPECT_EQ(&q.front(), slot0);
  for (std::uint32_t v = 8; v < 11; ++v) q.push_back(v, arena);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{7, 8, 9, 10}));
}

TEST(ShortQueue, ResetDropsASpill) {
  Arena arena;
  Queue q;
  q.reset();
  for (std::uint32_t v = 0; v < 5; ++v) q.push_back(v, arena);
  const std::size_t spilled = arena.bytes_in_use();
  ASSERT_GT(spilled, 0u);
  q.reset();
  arena.rewind();  // legal only because reset() dropped the spill
  EXPECT_TRUE(q.empty());
  // Back to inline storage: N pushes take nothing from the arena...
  for (std::uint32_t v = 10; v < 14; ++v) q.push_back(v, arena);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{10, 11, 12, 13}));
  // ...and the next spill is a fresh one of the first size.
  q.push_back(14, arena);
  EXPECT_EQ(arena.bytes_in_use(), spilled);
  EXPECT_EQ(contents(q), (std::vector<std::uint32_t>{10, 11, 12, 13, 14}));
}

/// Drives `q` through a seeded mix of pushes, pops and erases and records
/// the arena's bytes in use after every operation — the capacity sequence.
std::vector<std::size_t> drive(Queue& q, Arena& arena, std::uint64_t seed,
                               int ops, std::vector<std::uint32_t>& popped) {
  Rng rng(seed);
  std::vector<std::size_t> bytes;
  std::uint32_t next = 0;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next_below(10);
    if (r < 6 || q.empty()) {
      q.push_back(next++, arena);
    } else if (r < 9) {
      popped.push_back(q.front());
      q.pop_front();
    } else {
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(q.size()));
      popped.push_back(*(q.begin() + at));
      q.erase(q.begin() + at);
    }
    bytes.push_back(arena.bytes_in_use());
  }
  return bytes;
}

TEST(ShortQueue, FreshAndReusedQueuesFollowTheSameCapacitySequence) {
  constexpr int kOps = 2000;
  Arena fresh_arena;
  Queue fresh;
  fresh.reset();
  std::vector<std::uint32_t> fresh_popped;
  const std::vector<std::size_t> want =
      drive(fresh, fresh_arena, 17, kOps, fresh_popped);
  ASSERT_GT(want.back(), 0u);  // the sequence spills

  // A queue that spilled under another workload, then was reset over a
  // rewound arena, must replay the same growth and the same elements.
  Arena arena;
  Queue reused;
  reused.reset();
  std::vector<std::uint32_t> scratch;
  drive(reused, arena, 99, kOps / 2, scratch);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    reused.reset();
    arena.rewind();
    std::vector<std::uint32_t> popped;
    EXPECT_EQ(drive(reused, arena, 17, kOps, popped), want);
    EXPECT_EQ(popped, fresh_popped);
    EXPECT_EQ(contents(reused), contents(fresh));
  }
}

}  // namespace
}  // namespace itb
