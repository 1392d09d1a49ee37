// Extension (§4.7): LU decomposition — shrinking loop bounds, shrinking
// work units, active/inactive slices, and automatic balancing-frequency
// adaptation. The paper analyzes LU but only measures MM and SOR; this
// binary provides the measurement. The key §4.7 claim: as work units
// shrink, the measured rate in units/s rises, so a fixed time period maps
// to more units between balances and relative overhead stays bounded.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "n"});
  const int reps = static_cast<int>(cli.get_int("reps", 2));

  apps::LuConfig lu;
  lu.n = static_cast<int>(cli.get_int("n", 500));

  Table t("LU n=" + std::to_string(lu.n) +
          " (done-flag termination, dynamic pivot-owner broadcast)");
  t.header({"slaves", "load?", "par(s)", "par+DLB(s)", "eff", "eff+DLB",
            "rounds", "units moved"});

  for (int s : {4, 6}) {
    for (int loaded = 0; loaded <= 1; ++loaded) {
      exp::ExperimentConfig cfg;
      cfg.slaves = s;
      cfg.world = exp::paper_world();
      cfg.lb = exp::paper_lb();
      if (loaded) cfg.loads.push_back({0, [] { return load::constant(); }});

      lu.use_lb = false;
      auto par = bench::measure(reps, cfg,
                                [&](const exp::ExperimentConfig& c) {
                                  return exp::run_lu(lu, c);
                                });
      lu.use_lb = true;
      auto dlb = bench::measure(reps, cfg,
                                [&](const exp::ExperimentConfig& c) {
                                  return exp::run_lu(lu, c);
                                });

      t.row()
          .cell(s)
          .cell(loaded ? "slave 0" : "no")
          .cell(par.elapsed_s.mean(), 1)
          .cell(dlb.elapsed_s.mean(), 1)
          .cell(par.efficiency.mean(), 2)
          .cell(dlb.efficiency.mean(), 2)
          .cell(dlb.last_stats.rounds)
          .cell(dlb.last_stats.units_moved);
    }
  }
  bench::print_table(t);
  std::cout << "note: LU balancing rounds stay far below the " << lu.n - 1
            << " outer steps — the §4.7 frequency adaptation in action.\n";
  return 0;
}
