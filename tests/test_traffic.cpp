// Traffic patterns and the open-loop generator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/route_builder.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

TEST(UniformPattern, NeverSelfAndCoversAll) {
  UniformPattern p(16);
  Rng rng(1);
  std::set<HostId> seen;
  for (int i = 0; i < 2000; ++i) {
    const HostId d = p.pick(5, rng);
    ASSERT_NE(d, 5);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 16);
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(UniformPattern, RoughlyUniform) {
  UniformPattern p(8);
  Rng rng(2);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(p.pick(0, rng))];
  }
  for (int h = 1; h < 8; ++h) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(h)], kDraws / 7, kDraws / 70);
  }
}

TEST(BitReversal, InvolutionAndFixedPoints) {
  BitReversalPattern p(512);
  Rng rng(1);
  int fixed = 0;
  for (HostId h = 0; h < 512; ++h) {
    const HostId d = p.pick(h, rng);
    if (d == kNoHost) {
      ++fixed;
      continue;
    }
    // Reversal is an involution: reversing the destination gives the source.
    EXPECT_EQ(p.pick(d, rng), h);
  }
  // 9-bit palindromes: 2^5 = 32 fixed points.
  EXPECT_EQ(fixed, 32);
}

TEST(BitReversal, KnownValues) {
  BitReversalPattern p(8);  // 3 bits
  Rng rng(1);
  EXPECT_EQ(p.pick(1, rng), 4);  // 001 -> 100
  EXPECT_EQ(p.pick(3, rng), 6);  // 011 -> 110
  EXPECT_EQ(p.pick(0, rng), kNoHost);
  EXPECT_EQ(p.pick(7, rng), kNoHost);
}

TEST(BitReversal, RejectsNonPowerOfTwo) {
  EXPECT_THROW(BitReversalPattern(400), std::invalid_argument);
}

TEST(Hotspot, FractionRespected) {
  HotspotPattern p(64, 13, 0.10);
  Rng rng(3);
  int to_spot = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (p.pick(0, rng) == 13) ++to_spot;
  }
  // 10% direct + ~1/63 of the uniform remainder.
  const double expect = 0.10 + 0.90 / 63.0;
  EXPECT_NEAR(static_cast<double>(to_spot) / kDraws, expect, 0.01);
}

TEST(Hotspot, HotspotHostSendsUniform) {
  HotspotPattern p(64, 13, 0.50);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const HostId d = p.pick(13, rng);
    ASSERT_NE(d, 13) << "hotspot never sends to itself";
  }
}

TEST(UniformPattern, RejectsFewerThanTwoHosts) {
  // With one host the only candidate is the source itself; the draw over
  // the other hosts would name a host past the end.
  EXPECT_THROW(UniformPattern(0), std::invalid_argument);
  EXPECT_THROW(UniformPattern(1), std::invalid_argument);
  EXPECT_THROW(HotspotPattern(0, 0, 0.1), std::invalid_argument);
  EXPECT_THROW(HotspotPattern(1, 0, 0.1), std::invalid_argument);
}

TEST(Hotspot, Validation) {
  EXPECT_THROW(HotspotPattern(8, 9, 0.1), std::invalid_argument);
  EXPECT_THROW(HotspotPattern(8, -1, 0.1), std::invalid_argument);
  EXPECT_THROW(HotspotPattern(8, 3, 1.5), std::invalid_argument);
}

TEST(Local, Validation) {
  const Topology torus = make_torus_2d(4, 4, 1);
  EXPECT_THROW((void)LocalPattern(torus, -1), std::invalid_argument);
  // One host per switch at radius 0: a source's only candidate is itself,
  // and pick() would spin forever.
  EXPECT_THROW((void)LocalPattern(torus, 0), std::invalid_argument);
  EXPECT_THROW((void)LocalPattern(make_hyperx({4, 4}, 1), 0),
               std::invalid_argument);
  EXPECT_NO_THROW((void)LocalPattern(torus, 1));
  EXPECT_NO_THROW((void)LocalPattern(make_torus_2d(4, 4, 2), 0));
}

TEST(Local, DestinationsWithinThreeSwitches) {
  const Topology t = make_torus_2d(8, 8, 8);
  LocalPattern p(t, 3);
  Rng rng(5);
  const auto dist = t.all_switch_distances();
  for (const HostId src : {HostId{0}, HostId{100}, HostId{511}}) {
    const SwitchId ss = t.host(src).sw;
    for (int i = 0; i < 2000; ++i) {
      const HostId d = p.pick(src, rng);
      ASSERT_NE(d, src);
      const SwitchId ds = t.host(d).sw;
      EXPECT_LE(dist[static_cast<std::size_t>(ss) * 64 +
                     static_cast<std::size_t>(ds)],
                3);
    }
  }
}

TEST(Local, FourSwitchVariantReachesFurther) {
  const Topology t = make_torus_2d(8, 8, 8);
  LocalPattern p3(t, 3);
  LocalPattern p4(t, 4);
  Rng rng(6);
  const auto dist = t.all_switch_distances();
  auto max_seen = [&](LocalPattern& p) {
    int best = 0;
    for (int i = 0; i < 4000; ++i) {
      const HostId d = p.pick(0, rng);
      best = std::max(best, dist[static_cast<std::size_t>(t.host(d).sw)]);
    }
    return best;
  };
  EXPECT_EQ(max_seen(p3), 3);
  EXPECT_EQ(max_seen(p4), 4);
}

TEST(Permutation, MapsAndSkipsSelf) {
  PermutationPattern p({1, 0, 2, 3}, "swap01");
  Rng rng(1);
  EXPECT_EQ(p.pick(0, rng), 1);
  EXPECT_EQ(p.pick(1, rng), 0);
  EXPECT_EQ(p.pick(2, rng), kNoHost);
  EXPECT_EQ(p.name(), "swap01");
}

// ---- generator ----

struct GenRig {
  Topology topo = make_torus_2d(4, 4, 2);
  UpDown ud{topo, 0};
  RouteSet routes{build_updown_routes(topo, SimpleRoutes(topo, ud))};
  Simulator sim;
  MyrinetParams params;
  Network net{sim, topo, routes, params, PathPolicy::kSingle};
};

TEST(Generator, IntervalFromLoad) {
  GenRig rig;
  UniformPattern pat(rig.topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.01;
  cfg.payload_bytes = 512;
  TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
  // 0.01 * 16 switches / 32 hosts = 0.005 flits/ns/host ->
  // 512 flits / 0.005 = 102.4 us between messages.
  EXPECT_EQ(gen.interval(), 102400000);
}

TEST(Generator, MessageCountTracksLoad) {
  GenRig rig;
  UniformPattern pat(rig.topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.01;
  cfg.payload_bytes = 512;
  cfg.seed = 9;
  TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
  gen.start();
  rig.sim.run_until(ms(2));
  // Expected: 32 hosts * 2 ms / 102.4 us = 625 messages; phases randomise
  // the first interval, so allow a few percent.
  EXPECT_NEAR(static_cast<double>(gen.messages_generated()), 625.0, 35.0);
  EXPECT_EQ(gen.flits_generated(), gen.messages_generated() * 512);
}

TEST(Generator, StopHaltsGeneration) {
  GenRig rig;
  UniformPattern pat(rig.topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.05;
  TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
  gen.start();
  rig.sim.run_until(ms(1));
  gen.stop();
  const auto at_stop = gen.messages_generated();
  rig.sim.run_until(ms(3));
  EXPECT_EQ(gen.messages_generated(), at_stop);
  EXPECT_EQ(rig.net.packets_in_flight(), 0u) << "network must drain";
  EXPECT_EQ(rig.net.packets_delivered(), rig.net.packets_injected());
}

TEST(Generator, PoissonMeanMatches) {
  GenRig rig;
  UniformPattern pat(rig.topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.poisson = true;
  cfg.seed = 4;
  TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
  gen.start();
  rig.sim.run_until(ms(4));
  // 0.02*16/32 = 0.01 flits/ns/host -> 51.2 us mean interval ->
  // 32 hosts * 4 ms / 51.2 us = 2500 expected messages.
  EXPECT_NEAR(static_cast<double>(gen.messages_generated()), 2500.0, 150.0);
}

TEST(Generator, DeterministicPerSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    GenRig rig;
    UniformPattern pat(rig.topo.num_hosts());
    MetricsCollector m(rig.topo.num_switches());
    m.attach(rig.net);
    TrafficConfig cfg;
    cfg.load_flits_per_ns_per_switch = 0.02;
    cfg.seed = seed;
    TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
    gen.start();
    rig.sim.run_until(ms(2));
    return std::make_pair(gen.messages_generated(), m.avg_latency_ns());
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  // Different seeds shift phases and destinations: the latency average is
  // a continuous fingerprint and will not coincide.
  EXPECT_NE(fingerprint(5).second, fingerprint(6).second);
}

TEST(Generator, RejectsBadConfig) {
  GenRig rig;
  UniformPattern pat(rig.topo.num_hosts());
  // Zero, NaN, a load so high the message interval rounds to 0 ps, and
  // one so low the interval overflows TimePs.
  for (const double load : {0.0, std::nan(""), 1e300, 1e-300}) {
    TrafficConfig cfg;
    cfg.load_flits_per_ns_per_switch = load;
    EXPECT_THROW(TrafficGenerator(rig.sim, rig.net, pat, cfg),
                 std::invalid_argument)
        << load;
  }
  // A larger payload would overflow a packet's int wire length.
  TrafficConfig cfg;
  cfg.payload_bytes = kMaxPayloadBytes + 1;
  EXPECT_THROW(TrafficGenerator(rig.sim, rig.net, pat, cfg),
               std::invalid_argument);
  cfg.payload_bytes = kMaxPayloadBytes;
  EXPECT_NO_THROW(TrafficGenerator(rig.sim, rig.net, pat, cfg));
}

TEST(Generator, BitReversalFixedPointsGenerateNothing) {
  // On a 4x4 torus with 2 hosts per switch (32 hosts, 5 bits) the
  // palindromic sources stay silent; total generated < full rate.
  GenRig rig;
  BitReversalPattern pat(rig.topo.num_hosts());
  TrafficConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  TrafficGenerator gen(rig.sim, rig.net, pat, cfg);
  gen.start();
  rig.sim.run_until(ms(2));
  // 5-bit palindromes: 2^3 = 8 of 32 hosts are fixed points -> 25% less.
  const double full = 32.0 * to_ns(ms(2)) / to_ns(gen.interval());
  EXPECT_NEAR(static_cast<double>(gen.messages_generated()), full * 0.75,
              full * 0.06);
}

}  // namespace
}  // namespace itb
