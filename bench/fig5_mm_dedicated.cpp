// Figure 5: 500x500 matrix multiplication in a dedicated homogeneous
// environment — (a) execution time, (b) speedup, (c) efficiency for
// 1..7 slaves, comparing sequential, parallel (static), and parallel with
// dynamic load balancing. The headline result: DLB overhead is small, so
// the two parallel curves nearly coincide.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "max-slaves", "n", "trace", "metrics"});
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int max_slaves = static_cast<int>(cli.get_int("max-slaves", 7));

  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));

  // Optional flight recorder shared across the whole sweep
  // (--trace=FILE / --metrics=FILE). Never touches stdout.
  obs::Observability hub;
  obs::Observability* obs = bench::flight_recorder(cli, hub);

  Table t("Fig 5: MM " + std::to_string(mm.n) + "x" + std::to_string(mm.n) +
          " dedicated homogeneous (paper: seq ~250 s)");
  t.header({"slaves", "seq(s)", "par(s)", "par+DLB(s)", "speedup",
            "speedup+DLB", "eff", "eff+DLB"});

  const double seq = apps::mm_seq_time_s(mm);
  for (int s = 1; s <= max_slaves; ++s) {
    exp::ExperimentConfig cfg;
    cfg.slaves = s;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();
    cfg.obs = obs;

    mm.use_lb = false;
    auto par = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_mm(mm, c);
    });
    mm.use_lb = true;
    auto dlb = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_mm(mm, c);
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
  bench::dump_flight_recorder(cli, hub);
  return 0;
}
