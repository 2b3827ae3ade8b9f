// Microbenchmarks for the simulator substrate: calendar queue, RNG, routing
// table construction and end-to-end simulation rate (google-benchmark).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/route_builder.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "route/updown.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace itb;

// Hold model of the event queue: each step pops the earliest event and
// pushes one a delay later, drawn from the delay mix the network model
// schedules (52% 50 ns chunk times, 46% 49.2 ns cable delays, 0.6% 150 ns,
// 1.3% one to seven 6.25 ns flit times, 0.1% generator ticks 2-42 us
// ahead).  Arg: events held in the queue.
void BM_CalendarQueuePushPop(benchmark::State& state) {
  const auto held = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<TimePs> delays(std::size_t{1} << 16);
  for (TimePs& d : delays) {
    const std::uint64_t r = rng.next_below(1000);
    if (r < 520) {
      d = 50'000;
    } else if (r < 980) {
      d = 49'200;
    } else if (r < 986) {
      d = 150'000;
    } else if (r < 999) {
      d = 6'250 * static_cast<TimePs>(1 + rng.next_below(7));
    } else {
      d = 2'000'000 + static_cast<TimePs>(rng.next_below(40'000'000));
    }
  }
  CalendarQueue q;
  for (std::size_t i = 0; i < held; ++i) {
    q.push(static_cast<TimePs>(rng.next_below(50'000)), EventKind::kChunkSent,
           0, 0, nullptr);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Event e = q.pop();
    q.push(e.at + delays[i++ & (delays.size() - 1)], EventKind::kChunkSent, 0,
           0, nullptr);
    benchmark::DoNotOptimize(e.at);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarQueuePushPop)->Arg(512)->Arg(8192);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(512));
}
BENCHMARK(BM_RngNextBelow);

void BM_UpDownConstruction(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  for (auto _ : state) {
    UpDown ud(topo, 0);
    benchmark::DoNotOptimize(ud.root());
  }
}
BENCHMARK(BM_UpDownConstruction);

void BM_SimpleRoutesTorus(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  for (auto _ : state) {
    SimpleRoutes sr(topo, ud);
    benchmark::DoNotOptimize(sr.channel_weights().size());
  }
}
BENCHMARK(BM_SimpleRoutesTorus);

// A dense low-diameter graph (degree 30, 65536 pairs): the candidate walk
// and the refine passes dominate, as on the larger HyperX workloads.
void BM_SimpleRoutesHyperX16(benchmark::State& state) {
  const Topology topo = make_hyperx({16, 16}, 1);
  const UpDown ud(topo, select_updown_root(topo));
  for (auto _ : state) {
    SimpleRoutes sr(topo, ud);
    benchmark::DoNotOptimize(sr.channel_weights().size());
  }
}
BENCHMARK(BM_SimpleRoutesHyperX16)->Unit(benchmark::kMillisecond);

void BM_ItbRoutesTorus(benchmark::State& state) {
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  for (auto _ : state) {
    RouteSet rs = build_itb_routes(topo, ud);
    benchmark::DoNotOptimize(rs.alternatives(0, 63).size());
  }
}
BENCHMARK(BM_ItbRoutesTorus);

void BM_SimulationEventRate(benchmark::State& state) {
  // End-to-end events/second at a moderate uniform load on the torus.
  const Topology topo = make_torus_2d(8, 8, 8);
  const UpDown ud(topo, 0);
  const RouteSet routes = build_itb_routes(topo, ud);
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    MyrinetParams params;
    Network net(sim, topo, routes, params, PathPolicy::kRoundRobin, 3);
    UniformPattern pattern(topo.num_hosts());
    TrafficConfig tc;
    tc.load_flits_per_ns_per_switch = 0.02;
    TrafficGenerator gen(sim, net, pattern, tc);
    gen.start();
    sim.run_until(us(100));
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulationEventRate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
