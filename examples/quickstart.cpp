// Quickstart: the smallest complete nowlb program.
//
// Builds a 3-workstation cluster plus a master, runs a synthetic
// distributed loop (120 work units of 50 ms each) with dynamic load
// balancing while one workstation carries a competing task, and prints
// what the balancer did.
//
//   ./examples/quickstart [--slaves=3] [--units=120]
#include <iostream>

#include "lb/cluster.hpp"
#include "load/generators.hpp"
#include "msg/serialize.hpp"
#include "sim/world.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"slaves", "units"});
  const int slaves = cli.get_int("slaves", 3, 1);
  const int total_units = cli.get_int("units", 120, 0);
  const int units_per_slave = total_units / slaves;

  sim::World world;  // defaults: 100 ms quantum, 100 MB/s network

  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.initial_counts.assign(slaves, units_per_slave);
  lb::Cluster cluster(world, cc);

  // Work state: a simple per-rank counter of abstract units. Real
  // applications keep distributed arrays here (see mm_adaptive.cpp).
  std::vector<int> units(slaves, units_per_slave);
  std::vector<int> done(slaves, 0);

  cluster.spawn([&](sim::Context& ctx, int rank,
                    const lb::Cluster& c) -> sim::Task<> {
    lb::SlaveAgent::WorkOps ops;
    ops.remaining = [&, rank] { return units[rank]; };
    ops.pack = [&, rank](int count,
                         int) -> sim::Task<std::pair<sim::Payload, int>> {
      const int actual = std::min(count, units[rank]);
      units[rank] -= actual;
      co_return std::make_pair(msg::encode(actual), actual);
    };
    ops.unpack = [&, rank](sim::Payload p, int) -> sim::Task<int> {
      const int got = msg::decode<int>(p);
      units[rank] += got;
      co_return got;
    };
    lb::SlaveAgent agent = c.make_agent(ctx, rank, std::move(ops));

    agent.begin_phase();
    for (;;) {
      while (units[rank] > 0) {
        co_await ctx.compute(50 * sim::kMillisecond);  // one work unit
        --units[rank];
        ++done[rank];
        agent.add_units(1);
        co_await agent.hook();  // the compiler-inserted balancing hook
      }
      co_await agent.drain();
      if (agent.phase_done()) break;
    }
  });

  // Workstation 0 is shared with another user.
  cluster.add_load(0, load::constant());

  world.run();

  std::cout << "completed in " << sim::to_seconds(world.now())
            << " virtual seconds\n";
  for (int r = 0; r < slaves; ++r) {
    std::cout << "  slave " << r << " computed " << done[r] << " units"
              << (r == 0 ? "  (loaded workstation)" : "") << "\n";
  }
  const auto& st = cluster.stats();
  std::cout << "balancing rounds: " << st.rounds
            << ", movements ordered: " << st.moves_ordered
            << ", units moved: " << st.units_moved << "\n";
  return 0;
}
