// LU factorization with real arithmetic and verification: factorizes a
// diagonally dominant matrix on a loaded cluster, then checks the factors
// against sequential execution (they must match bit-for-bit: the update
// order per column is identical wherever the column lives).
//
//   ./examples/lu_solver [--n=120] [--slaves=4]
#include <cmath>
#include <iostream>

#include "apps/lu.hpp"
#include "exp/registry.hpp"
#include "lb/cluster.hpp"
#include "load/generators.hpp"
#include "sim/world.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"n", "slaves"});
  apps::LuConfig lu;
  lu.n = static_cast<int>(cli.get_int("n", 120));
  lu.real_compute = true;
  lu.update_cost = 200 * sim::kMicrosecond;
  const int slaves = static_cast<int>(cli.get_int("slaves", 4));
  if (slaves < 2) {
    std::cerr << "--slaves=" << cli.get("slaves", "")
              << " must be at least 2: the competing load runs on slave 1\n";
    return 2;
  }
  const int least = exp::min_n(apps::App::kLu, slaves);
  if (lu.n < least) {
    std::cerr << "--n=" << lu.n << " is too small: LU on " << slaves
              << " slaves needs --n >= " << least << "\n";
    return 2;
  }

  sim::World world;
  auto shared = std::make_shared<apps::LuShared>();
  apps::lu_make_inputs(lu, *shared);

  // Sequential reference on a copy.
  auto reference = shared->a;
  apps::lu_sequential(lu, reference);

  lb::Cluster cluster(world, apps::lu_cluster_config(lu, slaves,
                                                     nowlb::exp::paper_lb()));
  apps::lu_build(cluster, lu, shared);
  cluster.add_load(1, load::constant());
  world.run();

  std::cout << "LU n=" << lu.n << " on " << slaves
            << " slaves (load on slave 1) finished in "
            << sim::to_seconds(world.now()) << " virtual seconds\n";
  std::cout << "balancing rounds: " << cluster.stats().rounds
            << ", columns moved: " << cluster.stats().units_moved << "\n";

  // Verify.
  bool identical = shared->a == reference;
  std::cout << "factors identical to sequential execution: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  // Show final column ownership (work migrated away from the loaded slave).
  std::vector<int> owned(static_cast<std::size_t>(slaves), 0);
  for (int owner : shared->final_owner) {
    if (owner >= 0) ++owned[static_cast<std::size_t>(owner)];
  }
  for (int r = 0; r < slaves; ++r) {
    std::cout << "  slave " << r << " ends owning " << owned[r] << " columns"
              << (r == 1 ? "  (loaded)" : "") << "\n";
  }
  return identical ? 0 : 1;
}
