// Microbenchmarks for the simulator substrate: calendar queue, RNG, routing
// table construction and end-to-end simulation rate (google-benchmark).
#include <benchmark/benchmark.h>

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

void BM_CalendarQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<TimePs> times(n);
  for (auto& t : times) t = static_cast<TimePs>(rng.next_below(1'000'000));
  for (auto _ : state) {
    CalendarQueue q;
    for (const TimePs t : times) {
      q.push(t, EventKind::kCallback, 0, 0, nullptr);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().at);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CalendarQueuePushPop)->Arg(1024)->Arg(65536);

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
