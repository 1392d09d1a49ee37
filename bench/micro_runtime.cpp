// Microbenchmarks of the runtime substrate (google-benchmark): event
// engine throughput, coroutine task overhead, serialization, mailbox
// matching, and the load balancer's planning primitives.
#include <benchmark/benchmark.h>

#include "data/dist_array.hpp"
#include "lb/allocate.hpp"
#include "lb/filter.hpp"
#include "lb/plan.hpp"
#include "apps/mm.hpp"
#include "lb/cluster.hpp"
#include "msg/serialize.hpp"
#include "sim/engine.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

using namespace nowlb;

static void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.schedule_at(i, [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.dispatched_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

static void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::World w;
    auto& h0 = w.add_host();
    auto& h1 = w.add_host();
    sim::Pid rx = w.spawn(h1, "rx", [](sim::Context& ctx) -> sim::Task<> {
      for (int i = 0; i < 100; ++i) {
        sim::Message m = co_await ctx.recv(1);
        co_await ctx.send(m.src, 2, sim::Bytes{});
      }
    });
    w.spawn(h0, "tx", [rx](sim::Context& ctx) -> sim::Task<> {
      for (int i = 0; i < 100; ++i) {
        co_await ctx.send(rx, 1, sim::Bytes{});
        co_await ctx.recv(2);
      }
    });
    w.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_CoroutinePingPong);

static void BM_SerializeColumn(benchmark::State& state) {
  std::vector<double> col(2000, 1.5);
  for (auto _ : state) {
    const auto b = msg::encode(col);
    auto out = msg::decode<std::vector<double>>(b);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 2000 * sizeof(double));
}
BENCHMARK(BM_SerializeColumn);

static void BM_DistArrayPackUnpack(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    data::DistArray<double> src(2000), dst(2000);
    std::vector<data::SliceId> ids;
    for (int j = 0; j < 32; ++j) {
      src.add(j, std::vector<double>(2000, 1.0));
      ids.push_back(j);
    }
    state.ResumeTiming();
    auto payload = src.pack_and_remove(ids);
    dst.unpack_and_add(payload);
    benchmark::DoNotOptimize(dst.owned_count());
  }
}
BENCHMARK(BM_DistArrayPackUnpack);

static void BM_ProportionalAllocation(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> rates(static_cast<std::size_t>(state.range(0)));
  for (auto& r : rates) r = rng.uniform(1.0, 10.0);
  for (auto _ : state) {
    auto a = lb::proportional_allocation(rates, 5000);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_ProportionalAllocation)->Arg(4)->Arg(16)->Arg(64);

static void BM_PlanRestricted(benchmark::State& state) {
  const std::vector<int> current{50, 50, 50, 50, 50, 50};
  const std::vector<int> target{20, 60, 60, 60, 60, 40};
  for (auto _ : state) {
    auto t = lb::plan_restricted(current, target);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_PlanRestricted);

static void BM_TrendFilter(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> samples(1024);
  for (auto& s : samples) s = rng.uniform(40.0, 60.0);
  std::size_t i = 0;
  lb::TrendFilter f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.update(samples[i++ & 1023]));
  }
}
BENCHMARK(BM_TrendFilter);

static void BM_FullMmSimulation(benchmark::State& state) {
  // End-to-end simulator throughput: a small MM run with balancing.
  for (auto _ : state) {
    sim::World w;
    apps::MmConfig mm;
    mm.n = 60;
    mm.mac_cost = 50 * sim::kMicrosecond;
    lb::LbConfig lbc;
    auto shared = std::make_shared<apps::MmShared>();
    apps::mm_make_inputs(mm, *shared);
    lb::Cluster cluster(w, apps::mm_cluster_config(mm, 4, lbc));
    apps::mm_build(cluster, mm, shared);
    w.run();
    benchmark::DoNotOptimize(w.now());
  }
}
BENCHMARK(BM_FullMmSimulation);

// BENCHMARK_MAIN, except that an unknown flag exits 2 like every other
// binary here.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
