// Figure 6: 2000x2000 successive overrelaxation in a dedicated homogeneous
// environment — execution time, speedup, efficiency for 1..7 slaves.
// SOR's pipelined communication makes speedup sublinear; DLB overhead
// stays small.
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

  Table t("Fig 6: SOR " + std::to_string(sor.n) + "x" + std::to_string(sor.n) +
          " x" + std::to_string(sor.sweeps) +
          " dedicated homogeneous (paper: seq ~350 s)");
  t.header({"slaves", "seq(s)", "par(s)", "par+DLB(s)", "speedup",
            "speedup+DLB", "eff", "eff+DLB"});

  const double seq = apps::sor_seq_time_s(sor);
  for (int s = 1; s <= max_slaves; ++s) {
    exp::ExperimentConfig cfg;
    cfg.slaves = s;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();

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
        .cell(seq, 1)
        .cell_pm(par.elapsed_s.mean(), par.elapsed_s.range_halfwidth(), 1)
        .cell_pm(dlb.elapsed_s.mean(), dlb.elapsed_s.range_halfwidth(), 1)
        .cell(par.speedup.mean(), 2)
        .cell(dlb.speedup.mean(), 2)
        .cell(par.efficiency.mean(), 2)
        .cell(dlb.efficiency.mean(), 2);
  }
  bench::print_table(t);
  return 0;
}
