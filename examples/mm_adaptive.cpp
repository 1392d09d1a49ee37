// Matrix multiplication on a shared workstation network.
//
// Runs the paper's 500x500 MM on N slaves with a constant competing load
// on workstation 0, statically (the same program with no master) and with
// dynamic load balancing, and prints execution time, speedup and the
// paper's efficiency metric for both.
//
//   ./examples/mm_adaptive [--n=500] [--slaves=6]
#include <iostream>

#include "exp/registry.hpp"
#include "load/generators.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"n", "slaves"});
  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));

  exp::ExperimentConfig cfg;
  cfg.slaves = static_cast<int>(cli.get_int("slaves", 6));
  if (cfg.slaves < 1) {
    std::cerr << "--slaves=" << cli.get("slaves", "")
              << " must be a positive integer\n";
    return 2;
  }
  const int least = exp::min_n(apps::App::kMm, cfg.slaves);
  if (mm.n < least) {
    std::cerr << "--n=" << mm.n << " is too small: MM on " << cfg.slaves
              << " slaves needs --n >= " << least << "\n";
    return 2;
  }
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.loads.push_back({0, [] { return load::constant(); }});

  std::cout << "MM " << mm.n << "x" << mm.n << " on " << cfg.slaves
            << " slaves, constant competing load on slave 0\n";
  std::cout << "sequential time: " << apps::mm_seq_time_s(mm) << " s\n\n";

  cfg.balance = false;
  const auto static_run = exp::run_mm(mm, cfg);
  std::cout << "static distribution:     " << static_run.elapsed_s
            << " s, speedup " << static_run.speedup << ", efficiency "
            << static_run.efficiency << "\n";

  cfg.balance = true;
  const auto dlb_run = exp::run_mm(mm, cfg);
  std::cout << "dynamic load balancing:  " << dlb_run.elapsed_s
            << " s, speedup " << dlb_run.speedup << ", efficiency "
            << dlb_run.efficiency << "\n";
  std::cout << "  rounds " << dlb_run.stats.rounds << ", moves "
            << dlb_run.stats.moves_ordered << ", units moved "
            << dlb_run.stats.units_moved << ", period "
            << dlb_run.stats.last_period_s << " s\n";
  return 0;
}
