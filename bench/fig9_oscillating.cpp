// Figure 9: work assignment tracking an oscillating load. 500x500 MM
// (repeated so the run spans ~100 s) on 4 slaves, with a competing task on
// slave 0 that is busy 10 s out of every 20 s. Prints the raw measured
// rate, the trend-filtered (adjusted) rate, and the work assignment for
// the loaded slave, each normalized as in the paper (rates to their
// maximum, work to the equal-distribution share). Expected shape: work
// tracks the available rate with ~2 balancing periods of lag; the filtered
// rate is smoother than the raw rate.
#include <algorithm>

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

namespace {

void print_normalized(const char* label, const Series* s, double norm) {
  if (s == nullptr || s->size() == 0) {
    std::cout << label << ": (no data)\n";
    return;
  }
  std::vector<double> v = s->v;
  for (auto& x : v) x /= norm;
  std::cout << ascii_chart(s->t, v, 72, 10, label);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"n", "repeats"});
  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));
  // Repeats stretch the run to the paper's ~100 s horizontal axis.
  mm.repeats = static_cast<int>(cli.get_int("repeats", 3));

  exp::ExperimentConfig cfg;
  cfg.slaves = 4;
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.want_trace = true;
  cfg.loads.push_back({0, [] {
                         return load::oscillating(20 * sim::kSecond,
                                                  10 * sim::kSecond);
                       }});

  exp::Trace trace;
  const auto m = exp::run_mm(mm, cfg, &trace);

  std::cout << "== Fig 9: MM with oscillating load (20 s period, 10 s "
               "duration) on slave 0 of 4 ==\n";
  std::cout << "run took " << m.elapsed_s << " s, " << m.stats.rounds
            << " balancing rounds, " << m.stats.units_moved
            << " columns moved\n\n";

  const Series* raw = trace.find("lb.raw_rate.0");
  const Series* adj = trace.find("lb.adj_rate.0");
  const Series* work = trace.find("lb.work.0");

  double max_rate = 1e-9;
  if (raw != nullptr) {
    for (double v : raw->v) max_rate = std::max(max_rate, v);
  }
  const double equal_share = static_cast<double>(mm.n) / cfg.slaves;

  print_normalized("raw rate (normalized to max)", raw, max_rate);
  std::cout << '\n';
  print_normalized("adjusted (filtered) rate", adj, max_rate);
  std::cout << '\n';
  print_normalized("work assignment (normalized to equal share)", work,
                   equal_share);

  // Numeric series for plotting, sourced straight from the decision
  // ledger: one row per round where the planner ran.
  Table t("Fig 9 series (slave 0)");
  t.header({"t(s)", "raw", "adjusted", "work"});
  for (const auto& rec : trace.rounds) {
    switch (rec.gate) {
      case obs::Gate::kMove:
      case obs::Gate::kBelowThreshold:
      case obs::Gate::kNotProfitable:
      case obs::Gate::kHold:
        break;
      default:
        continue;  // wind-down / frozen rounds carry no planner output
    }
    if (rec.raw_rates.empty()) continue;
    t.row()
        .cell(sim::to_seconds(rec.t), 1)
        .cell(rec.raw_rates[0] / max_rate, 3)
        .cell(rec.rates[0] / max_rate, 3)
        .cell(static_cast<double>(rec.target[0]) / equal_share, 3);
  }
  bench::print_table(t);
  return 0;
}
