// Ablation (§3.2 refinements): rate filtering, the 10 % improvement
// threshold, and the profitability determination phase, under an
// oscillating load (the environment they were designed for). Disabling
// them increases movement churn and usually hurts completion time.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "n"});
  const int reps = static_cast<int>(cli.get_int("reps", 2));

  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));
  mm.repeats = 4;

  struct Variant {
    const char* name;
    bool filtering;
    double threshold;
    bool profitability;
  };
  const Variant variants[] = {
      {"all refinements (paper)", true, 0.10, true},
      {"no filtering", false, 0.10, true},
      {"no 10% threshold", true, 0.0, true},
      {"no profitability", true, 0.10, false},
      {"none", false, 0.0, false},
  };

  Table t("Ablation: §3.2 refinements under oscillating load "
          "(MM x4, 4 slaves)");
  t.header({"variant", "time(s)", "efficiency", "moves", "units moved"});

  for (const auto& v : variants) {
    exp::ExperimentConfig cfg;
    cfg.slaves = 4;
    cfg.world = exp::paper_world();
    cfg.lb = exp::paper_lb();
    cfg.lb.filtering = v.filtering;
    cfg.lb.improvement_threshold = v.threshold;
    cfg.lb.profitability_check = v.profitability;
    cfg.loads.push_back({0, [] {
                           return load::oscillating(20 * sim::kSecond,
                                                    10 * sim::kSecond);
                         }});

    auto r = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_mm(mm, c);
    });
    t.row()
        .cell(v.name)
        .cell_pm(r.elapsed_s.mean(), r.elapsed_s.range_halfwidth(), 1)
        .cell(r.efficiency.mean(), 2)
        .cell(r.last_stats.moves_ordered)
        .cell(r.last_stats.units_moved);
  }
  bench::print_table(t);
  return 0;
}
