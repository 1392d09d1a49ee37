// Ablation (§4.2 / §4.4, Figs. 3-4): strip-mine grain size and hook
// placement.
//
// Part 1: SOR completion time across strip sizes — blocks far below the
// scheduling quantum mean per-strip synchronization dominates and quantum
// effects make execution erratic; far above it, the pipeline fills/drains
// slowly and balancing is less responsive. The automatic startup
// calibration (~1.5 x quantum) should sit near the sweet spot.
//
// Part 2: the compiler's hook-placement rule on SOR's loop levels.
#include "bench_common.hpp"
#include "loop/grain.hpp"
#include "loop/hooks.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "n", "sweeps"});
  const int reps = static_cast<int>(cli.get_int("reps", 2));

  apps::SorConfig sor;
  sor.n = static_cast<int>(cli.get_int("n", 1000));
  sor.sweeps = static_cast<int>(cli.get_int("sweeps", 10));

  Table t("Ablation: SOR strip size (n=" + std::to_string(sor.n) +
          ", 6 slaves, load on slave 0; quantum 100 ms)");
  t.header({"block rows", "time(s)", "efficiency", "units moved"});

  for (int bs : {1, 4, 0 /*auto*/, 120, 499}) {
    exp::ExperimentConfig cfg;
    cfg.slaves = 6;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();
    cfg.loads.push_back({0, [] { return load::constant(); }});

    sor.block_rows = bs;
    sor.use_lb = true;
    auto r = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_sor(sor, c);
    });
    t.row()
        .cell(bs == 0 ? std::string("auto (1.5x quantum)")
                      : std::to_string(bs))
        .cell_pm(r.elapsed_s.mean(), r.elapsed_s.range_halfwidth(), 1)
        .cell(r.efficiency.mean(), 2)
        .cell(r.last_stats.units_moved);
  }
  bench::print_table(t);

  // ---- hook placement rule (§4.2, Fig. 3) ----
  const auto spec = apps::sor_spec(sor);
  const sim::Time col_cost = spec.iteration_cost(0, 1);
  const int cols_per_slave = spec.distributed_extent / 6;
  const sim::Time strip_cost = col_cost / 10;  // ~10 strips per column
  std::vector<loop::HookLevel> levels{
      {"outer (whole sweep)", col_cost * cols_per_slave},
      {"strip (lbhook1a)", strip_cost * cols_per_slave},
      {"column within strip (lbhook2)", strip_cost},
  };
  const int placed = loop::place_hook(levels);
  Table h("Hook placement (SOR, per-level body cost vs 1% rule)");
  h.header({"level", "body cost(ms)", "hook overhead share", "chosen"});
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double share = sim::to_seconds(loop::kDefaultHookOverhead) /
                         sim::to_seconds(levels[i].body_cost);
    h.row()
        .cell(levels[i].label)
        .cell(sim::to_seconds(levels[i].body_cost) * 1e3, 2)
        .cell(share * 100.0, 3)
        .cell(static_cast<int>(i) == placed ? "<== hook here" : "");
  }
  bench::print_table(h);
  return 0;
}
