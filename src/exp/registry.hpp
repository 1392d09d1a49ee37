// The experiment registry: every run EXPERIMENTS.md reports, declared as
// data. nowlb-experiments prints the tables from it, nowlb-inspect records
// a point of any figure listed in figures(), and the determinism goldens
// run each of those figures on 4 slaves.
#pragma once

#include <vector>

#include "apps/app.hpp"
#include "exp/harness.hpp"

namespace nowlb::exp {

/// Competing load on slave 0.
enum class Load {
  kNone,
  kConstant,
  kOscillating,  // Fig. 9: busy 10 s of every 20 s
};

/// One application run, minus the slave count and whether it balances.
struct Workload {
  apps::App app = apps::App::kMm;
  int n = 500;      // matrix or grid dimension
  int outer = 1;    // MM repeats or SOR sweeps; LU ignores it
  Load load = Load::kNone;
  int block_rows = 0;  // SOR strip height; 0 calibrates at startup (§4.4)
};

/// paper_world() and paper_lb() on `slaves` slaves, plus the load.
ExperimentConfig config(const Workload& w, int slaves);

/// Run `w`, balanced or static as `cfg.balance` says.
Measurement run(const Workload& w, const ExperimentConfig& cfg,
                Trace* trace = nullptr);

/// The sequential execution time speedup and efficiency are taken against.
double seq_time_s(const Workload& w);

/// The smallest n `app` runs with on `slaves` slaves: SOR gives each slave
/// an interior column (n - 2 >= slaves), LU needs an elimination step and
/// MM a column.
int min_n(apps::App app, int slaves);

struct Figure {
  const char* name;  // "fig5.mm_dedicated", ...
  Workload workload;
};

/// Figs. 5-9 at paper size, in paper order.
const std::vector<Figure>& figures();

}  // namespace nowlb::exp
