// Path-selection policies (ITB-SP / ITB-RR and the adaptive extensions).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/path_policy.hpp"
#include "sim/arena.hpp"
#include "sim/rng.hpp"

namespace itb {
namespace {

TEST(PathPolicy, Names) {
  EXPECT_STREQ(to_string(PathPolicy::kSingle), "SP");
  EXPECT_STREQ(to_string(PathPolicy::kRoundRobin), "RR");
  EXPECT_STREQ(to_string(PathPolicy::kRandom), "RND");
  EXPECT_STREQ(to_string(PathPolicy::kAdaptive), "ADAPT");
}

TEST(PathPolicy, SingleAlwaysZero) {
  Arena arena;
  PathSelector s(PathPolicy::kSingle, 8, 1, arena);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s.pick(3, 7), 0);
}

TEST(PathPolicy, SingleAlternativeShortCircuits) {
  for (const PathPolicy p : {PathPolicy::kSingle, PathPolicy::kRoundRobin,
                             PathPolicy::kRandom, PathPolicy::kAdaptive}) {
    Arena arena;
    PathSelector s(p, 8, 1, arena);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(s.pick(2, 1), 0);
  }
}

TEST(PathPolicy, RoundRobinCyclesThroughAllAlternatives) {
  Arena arena;
  PathSelector s(PathPolicy::kRoundRobin, 8, 42, arena);
  const int first = s.pick(5, 4);
  std::vector<int> seq;
  for (int i = 0; i < 8; ++i) seq.push_back(s.pick(5, 4));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(seq[static_cast<std::size_t>(i)], (first + 1 + i) % 4);
  }
}

TEST(PathPolicy, RoundRobinPerDestinationIndependent) {
  Arena arena;
  PathSelector s(PathPolicy::kRoundRobin, 8, 42, arena);
  const int a0 = s.pick(1, 5);
  s.pick(2, 5);  // different destination: must not advance dst 1's counter
  s.pick(2, 5);
  EXPECT_EQ(s.pick(1, 5), (a0 + 1) % 5);
}

TEST(PathPolicy, RoundRobinOffsetsVaryBySeed) {
  // Random starting offsets are what spreads alternatives across sources.
  std::set<int> firsts;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Arena arena;
    PathSelector s(PathPolicy::kRoundRobin, 8, seed, arena);
    firsts.insert(s.pick(0, 10));
  }
  EXPECT_GT(firsts.size(), 3u);
}

TEST(PathPolicy, RoundRobinRowIsTheSeedStreamInDestinationOrder) {
  // The row is drawn on the first multi-path pick, but it must hold what
  // an up-front draw would: destination d's offset is the d-th value of the
  // selector's stream, whichever destination is picked first.
  constexpr int kSwitches = 8;
  constexpr std::uint64_t kSeed = 0x5eed;
  Rng stream(kSeed);
  std::vector<std::uint32_t> row;
  for (int d = 0; d < kSwitches; ++d) {
    row.push_back(static_cast<std::uint32_t>(stream.next_u64()));
  }
  Arena arena;
  PathSelector s(PathPolicy::kRoundRobin, kSwitches, kSeed, arena);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(s.pick(3, 1), 0);
    EXPECT_EQ(arena.bytes_in_use(), 0u);  // one alternative draws no row
    for (const int d : {7, 2, 0}) {
      const auto n = static_cast<std::uint32_t>(3 + d);
      EXPECT_EQ(s.pick(d, static_cast<int>(n)),
                static_cast<int>(row[static_cast<std::size_t>(d)] % n));
    }
    // 2 bytes per destination and one stream mark for all eight.
    EXPECT_EQ(arena.bytes_in_use(),
              kSwitches * sizeof(std::uint16_t) + sizeof(Rng));
    // A reset selector over a rewound arena starts from the same stream.
    s.reset(PathPolicy::kRoundRobin, kSwitches, kSeed, arena);
    arena.rewind();
  }
}

TEST(PathPolicy, RoundRobinCompactRowMatchesThe32BitCounter) {
  // The row keeps each cursor reduced modulo its pair's count in 2 bytes.
  // Over three full cycles of every count, including 1 and the largest a
  // SpanRec holds, each pick must equal what a 32-bit counter started at
  // the destination's draw and taken modulo n picks.  300 destinations
  // put first picks on both sides of several stream marks.
  constexpr std::array<int, 8> kCounts{1, 2, 3, 7, 10, 255, 256, 65535};
  constexpr int kSwitches = 300;
  constexpr std::uint64_t kSeed = 0xc0ffee;
  const auto count_of = [&](int d) {
    return kCounts[static_cast<std::size_t>(d) % kCounts.size()];
  };
  Rng stream(kSeed);
  std::vector<std::uint32_t> counter;
  for (int d = 0; d < kSwitches; ++d) {
    counter.push_back(static_cast<std::uint32_t>(stream.next_u64()));
    // The 32-bit counter does not wrap within the picks below.
    ASSERT_LT(counter.back(),
              std::numeric_limits<std::uint32_t>::max() - 3 * 65535u);
  }
  Arena arena;
  PathSelector s(PathPolicy::kRoundRobin, kSwitches, kSeed, arena);
  // First picks in descending destination order, then every destination
  // interleaved, so each cursor advances only on its own picks.
  for (int k = 0; k < 3 * 65535; ++k) {
    for (int i = 0; i < kSwitches; ++i) {
      const int d = k == 0 ? kSwitches - 1 - i : i;
      const int n = count_of(d);
      if (k >= 3 * n) continue;
      auto& c = counter[static_cast<std::size_t>(d)];
      const auto want = static_cast<int>(c++ % static_cast<std::uint32_t>(n));
      const int got = s.pick(d, n);
      if (got != want) {
        FAIL() << "destination " << d << " (n = " << n << "), pick " << k
               << ": got " << got << ", want " << want;
      }
    }
  }
}

TEST(PathPolicy, RandomInRangeAndDeterministic) {
  Arena arena;
  PathSelector a(PathPolicy::kRandom, 8, 7, arena);
  PathSelector b(PathPolicy::kRandom, 8, 7, arena);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    const int va = a.pick(0, 6);
    EXPECT_EQ(va, b.pick(0, 6));
    ASSERT_GE(va, 0);
    ASSERT_LT(va, 6);
    seen.insert(va);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PathPolicy, AdaptiveExploresUnseenFirst) {
  Arena arena;
  PathSelector s(PathPolicy::kAdaptive, 8, 3, arena);
  std::set<int> first_picks;
  for (int i = 0; i < 4; ++i) {
    const int alt = s.pick(0, 4);
    first_picks.insert(alt);
    s.feedback(0, alt, ns(std::int64_t{1000}));
  }
  // With every alternative given feedback, all four must have been tried
  // (unexplored-first rule), modulo occasional epsilon exploration repeats.
  EXPECT_GE(first_picks.size(), 3u);
}

TEST(PathPolicy, AdaptiveConvergesToFastAlternative) {
  Arena arena;
  PathSelector s(PathPolicy::kAdaptive, 8, 3, arena);
  // Feed strong signal: alternative 2 is 10x faster.
  for (int round = 0; round < 50; ++round) {
    const int alt = s.pick(1, 4);
    s.feedback(1, alt, alt == 2 ? ns(std::int64_t{500})
                                : ns(std::int64_t{5000}));
  }
  int picks2 = 0;
  for (int i = 0; i < 100; ++i) {
    const int alt = s.pick(1, 4);
    if (alt == 2) ++picks2;
    s.feedback(1, alt, alt == 2 ? ns(std::int64_t{500})
                                : ns(std::int64_t{5000}));
  }
  EXPECT_GT(picks2, 70);  // mostly exploits, epsilon = 10%
}

TEST(PathPolicy, AdaptiveFeedbackIgnoredByOtherPolicies) {
  Arena arena;
  PathSelector s(PathPolicy::kRoundRobin, 8, 3, arena);
  s.feedback(0, 1, ns(std::int64_t{100}));  // must not crash or affect state
  const int first = s.pick(0, 3);
  EXPECT_EQ(s.pick(0, 3), (first + 1) % 3);
}

}  // namespace
}  // namespace itb
