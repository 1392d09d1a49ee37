// Figure 7: 500x500 MM with a constant competing load on slave 0 —
// (a) execution time and (b) the paper's resource-usage efficiency
// (T_seq / sum(elapsed - competing CPU)). Expected shape: without DLB the
// loaded slave drags everyone (~2x); with DLB efficiency stays near the
// dedicated level.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "max-slaves", "n"});
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int max_slaves = static_cast<int>(cli.get_int("max-slaves", 7));

  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));

  Table t("Fig 7: MM " + std::to_string(mm.n) + "x" + std::to_string(mm.n) +
          ", constant competing load on slave 0");
  t.header({"slaves", "par(s)", "par+DLB(s)", "eff", "eff+DLB",
            "units moved"});

  for (int s = 1; s <= max_slaves; ++s) {
    exp::ExperimentConfig cfg;
    cfg.slaves = s;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();
    cfg.loads.push_back({0, [] { return load::constant(); }});

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
        .cell_pm(par.elapsed_s.mean(), par.elapsed_s.range_halfwidth(), 1)
        .cell_pm(dlb.elapsed_s.mean(), dlb.elapsed_s.range_halfwidth(), 1)
        .cell(par.efficiency.mean(), 2)
        .cell(dlb.efficiency.mean(), 2)
        .cell(dlb.last_stats.units_moved);
  }
  bench::print_table(t);
  return 0;
}
