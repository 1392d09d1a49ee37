// Pipelined SOR on a shared workstation network — the paper's hardest
// scenario: restricted (adjacent-only) work movement, mid-sweep column
// transfers with catch-up / set-aside reconciliation, and automatic
// strip-size calibration. Default: a constant competing load on slave 0
// (Fig. 8); pass --oscillate for the Fig. 9-style 20 s on/off load (note:
// a 20 s oscillation is faster than restricted pipelined balancing can
// converge at small problem sizes, so DLB may lose there — instructive!).
// The static run is the same program with no master.
//
//   ./examples/sor_pipeline [--n=2000] [--sweeps=20] [--slaves=6] [--oscillate]
#include <iostream>
#include <vector>

#include "exp/registry.hpp"
#include "load/generators.hpp"
#include "obs/ledger.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"n", "sweeps", "slaves", "oscillate"});
  apps::SorConfig sor;
  sor.n = static_cast<int>(cli.get_int("n", 2000));
  sor.sweeps = static_cast<int>(cli.get_int("sweeps", 20));

  exp::ExperimentConfig cfg;
  cfg.slaves = static_cast<int>(cli.get_int("slaves", 6));
  if (cfg.slaves < 1) {
    std::cerr << "--slaves=" << cli.get("slaves", "")
              << " must be a positive integer\n";
    return 2;
  }
  const int least = exp::min_n(apps::App::kSor, cfg.slaves);
  if (sor.n < least) {
    std::cerr << "--n=" << sor.n << " is too small: SOR on " << cfg.slaves
              << " slaves needs --n >= " << least << "\n";
    return 2;
  }
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.want_trace = true;
  if (cli.get_bool("oscillate", false)) {
    cfg.loads.push_back({0, [] {
                           return load::oscillating(20 * sim::kSecond,
                                                    10 * sim::kSecond);
                         }});
  } else {
    cfg.loads.push_back({0, [] { return load::constant(); }});
  }

  std::cout << "SOR " << sor.n << "x" << sor.n << " x" << sor.sweeps
            << " sweeps on " << cfg.slaves
            << " slaves; competing load on slave 0\n";
  std::cout << "sequential time: " << apps::sor_seq_time_s(sor) << " s\n\n";

  cfg.balance = false;
  const auto st = exp::run_sor(sor, cfg);
  std::cout << "static:  " << st.elapsed_s << " s, efficiency "
            << st.efficiency << "\n";

  cfg.balance = true;
  exp::Trace trace;
  const auto dy = exp::run_sor(sor, cfg, &trace);
  std::cout << "dynamic: " << dy.elapsed_s << " s, efficiency "
            << dy.efficiency << "  (" << dy.stats.rounds << " rounds, "
            << dy.stats.units_moved << " columns moved)\n\n";

  // Slave 0's target after each round where the planner ran.
  std::vector<double> times, work;
  for (const obs::DecisionRecord& r : trace.rounds) {
    if (!obs::planner_ran(r.gate)) continue;
    times.push_back(sim::to_seconds(r.t));
    work.push_back(static_cast<double>(r.target[0]));
  }
  if (!times.empty()) {
    std::cout << ascii_chart(times, work, 72, 10,
                             "columns assigned to slave 0 over time");
  }
  return 0;
}
