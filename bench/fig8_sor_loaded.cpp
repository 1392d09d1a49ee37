// Figure 8: 2000x2000 SOR with a constant competing load on slave 0 —
// execution time and efficiency, static vs dynamically balanced. The
// pipelined application is the hard case: movement is restricted to
// adjacent ranks and moved columns need catch-up / set-aside handling.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "max-slaves", "n", "sweeps"});
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int max_slaves = static_cast<int>(cli.get_int("max-slaves", 7));

  apps::SorConfig sor;
  sor.n = static_cast<int>(cli.get_int("n", 2000));
  sor.sweeps = static_cast<int>(cli.get_int("sweeps", 20));

  Table t("Fig 8: SOR " + std::to_string(sor.n) + "x" + std::to_string(sor.n) +
          ", constant competing load on slave 0");
  t.header({"slaves", "par(s)", "par+DLB(s)", "eff", "eff+DLB",
            "units moved"});

  for (int s = 1; s <= max_slaves; ++s) {
    exp::ExperimentConfig cfg;
    cfg.slaves = s;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();
    cfg.loads.push_back({0, [] { return load::constant(); }});

    sor.use_lb = false;
    auto par = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_sor(sor, c);
    });
    sor.use_lb = true;
    auto dlb = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_sor(sor, c);
    });

    t.row()
        .cell(s)
        .cell_pm(par.elapsed_s.mean(), par.elapsed_s.range_halfwidth(), 1)
        .cell_pm(dlb.elapsed_s.mean(), dlb.elapsed_s.range_halfwidth(), 1)
        .cell(par.efficiency.mean(), 2)
        .cell(dlb.efficiency.mean(), 2)
        .cell(dlb.last_stats.units_moved);
  }
  bench::print_table(t);
  return 0;
}
