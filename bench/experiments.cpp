// nowlb-experiments: prints every table and figure EXPERIMENTS.md reports.
//
//   nowlb-experiments                   # every experiment, in paper order
//   nowlb-experiments fig5 fig8         # the named ones
//   nowlb-experiments fig5 --n=200 --max-slaves=3 --reps=1
//
// A flag applies to each named experiment that reads it; the others keep
// their defaults. A value no named experiment can run with exits 2 before
// any run. bench/experiments.txt holds the output at default flags, and
// the experiments_output test compares against it. To record one run of a
// figure, use `nowlb-inspect --record`.
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "exp/registry.hpp"
#include "loop/hooks.hpp"
#include "loop/spec.hpp"
#include "obs/ledger.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nowlb;
using apps::App;
using exp::Load;
using exp::Workload;

namespace {

constexpr int kMaxSlaves = 7;  // --max-slaves default

/// The command line, as each experiment reads it.
struct Flags {
  const Cli& cli;

  int get(const char* name, int fallback) const {
    return static_cast<int>(cli.get_int(name, fallback));
  }
  /// `w` resized by --n, and by --sweeps for SOR.
  Workload sized(Workload w) const {
    w.n = get("n", w.n);
    if (w.app == App::kSor) w.outer = get("sweeps", w.outer);
    return w;
  }
};

/// Paper-style repetition: mean with range bars over `reps` seeds.
exp::RepeatedMeasurement measure(int reps, const Workload& w,
                                 const exp::ExperimentConfig& cfg) {
  return exp::repeat(reps, cfg, [&](const exp::ExperimentConfig& c) {
    return exp::run(w, c);
  });
}

const Workload& figure(const std::string& name) {
  const auto& figs = exp::figures();
  return std::find_if(figs.begin(), figs.end(),
                      [&](const exp::Figure& f) { return name == f.name; })
      ->workload;
}

std::string square(const Workload& w) {
  return std::to_string(w.n) + "x" + std::to_string(w.n);
}

void print_table(const Table& t) {
  t.print(std::cout);
  std::cout << '\n';
}

// Table 1: application properties, derived from each application's
// LoopNestSpec by loop::analyze — the information the paper says
// "existing compilers are already capable of identifying".
void table1(const Flags&) {
  apps::MmConfig mm;
  mm.repeats = 8;  // the benchmark multiplies repeatedly
  const loop::AppProperties props[] = {
      loop::analyze(apps::mm_spec(mm)),
      loop::analyze(apps::sor_spec(apps::SorConfig{})),
      loop::analyze(apps::lu_spec(apps::LuConfig{})),
  };

  using P = loop::AppProperties;
  const std::pair<const char*, bool P::*> rows[] = {
      {"loop-carried dependences", &P::loop_carried_dependences},
      {"communication outside loop", &P::communication_outside_loop},
      {"repeated execution of loop", &P::repeated_execution},
      {"varying loop bounds", &P::varying_loop_bounds},
      {"index-dependent iteration size", &P::index_dependent_iteration_size},
      {"data-dependent iteration size", &P::data_dependent_iteration_size},
  };
  Table t("Table 1: application properties (derived from loop specs)");
  t.header({"property", "MM", "SOR", "LU"});
  for (const auto& [label, property] : rows) {
    t.row().cell(label);
    for (const P& p : props) t.cell(p.*property ? "yes" : "no");
  }
  t.print(std::cout);

  std::cout << "\npaper's Table 1 row for comparison: MM(no,no,yes,no,no,no) "
               "SOR(yes,yes,yes,no,no,no) LU(no,yes,yes,yes,yes,no)\n";
}

// Figs. 5-8: static and balanced runs on 1..max-slaves slaves. A dedicated
// figure reports time, speedup and efficiency against the sequential time;
// a loaded one reports time, the paper's resource-usage efficiency and the
// work the balancer moved.
void sweep(const Flags& f, const Workload& w, const std::string& title) {
  const bool loaded = w.load != Load::kNone;
  Table t(title);
  if (loaded) {
    t.header({"slaves", "par(s)", "par+DLB(s)", "eff", "eff+DLB",
              "units moved"});
  } else {
    t.header({"slaves", "seq(s)", "par(s)", "par+DLB(s)", "speedup",
              "speedup+DLB", "eff", "eff+DLB"});
  }
  const int reps = f.get("reps", 3);
  const double seq = exp::seq_time_s(w);
  for (int s = 1; s <= f.get("max-slaves", kMaxSlaves); ++s) {
    exp::ExperimentConfig cfg = exp::config(w, s);
    cfg.balance = false;
    const auto par = measure(reps, w, cfg);
    cfg.balance = true;
    const auto dlb = measure(reps, w, cfg);
    t.row().cell(s);
    if (!loaded) t.cell(seq, 1);
    t.cell_pm(par.elapsed_s.mean(), par.elapsed_s.range_halfwidth(), 1)
        .cell_pm(dlb.elapsed_s.mean(), dlb.elapsed_s.range_halfwidth(), 1);
    if (!loaded) {
      t.cell(par.speedup.mean(), 2).cell(dlb.speedup.mean(), 2);
    }
    t.cell(par.efficiency.mean(), 2).cell(dlb.efficiency.mean(), 2);
    if (loaded) t.cell(dlb.last_stats.units_moved);
  }
  print_table(t);
}

void fig5(const Flags& f) {
  const Workload w = f.sized(figure("fig5.mm_dedicated"));
  sweep(f, w,
        "Fig 5: MM " + square(w) +
            " dedicated homogeneous (paper: seq ~250 s)");
}

void fig6(const Flags& f) {
  const Workload w = f.sized(figure("fig6.sor_dedicated"));
  sweep(f, w,
        "Fig 6: SOR " + square(w) + " x" + std::to_string(w.outer) +
            " dedicated homogeneous (paper: seq ~350 s)");
}

void fig7(const Flags& f) {
  const Workload w = f.sized(figure("fig7.mm_loaded"));
  sweep(f, w,
        "Fig 7: MM " + square(w) + ", constant competing load on slave 0");
}

void fig8(const Flags& f) {
  const Workload w = f.sized(figure("fig8.sor_loaded"));
  sweep(f, w,
        "Fig 8: SOR " + square(w) + ", constant competing load on slave 0");
}

void print_normalized(const char* label, const std::vector<double>& t,
                      std::vector<double> v, double norm) {
  if (v.empty()) {
    std::cout << label << ": (no data)\n";
    return;
  }
  for (auto& x : v) x /= norm;
  std::cout << ascii_chart(t, v, 72, 10, label);
}

// Fig. 9: work assignment tracking an oscillating load on slave 0 of 4.
// Prints the raw measured rate, the trend-filtered (adjusted) rate and the
// loaded slave's work assignment, normalized as in the paper (rates to
// their maximum, work to the equal share). Expected shape: work tracks the
// available rate with ~2 balancing periods of lag; the filtered rate is
// smoother than the raw rate.
void fig9(const Flags& f) {
  Workload w = f.sized(figure("fig9.mm_oscillating"));
  w.outer = f.get("repeats", w.outer);
  exp::ExperimentConfig cfg = exp::config(w, 4);
  cfg.want_trace = true;

  exp::Trace trace;
  const auto m = exp::run(w, cfg, &trace);

  std::cout << "== Fig 9: MM with oscillating load (20 s period, 10 s "
               "duration) on slave 0 of 4 ==\n";
  std::cout << "run took " << m.elapsed_s << " s, " << m.stats.rounds
            << " balancing rounds, " << m.stats.units_moved
            << " columns moved\n\n";

  // Slave 0's series: one point per round where the planner ran.
  std::vector<double> times, raw, adj, work;
  double max_rate = 1e-9;
  for (const obs::DecisionRecord& r : trace.rounds) {
    if (!obs::planner_ran(r.gate)) continue;
    times.push_back(sim::to_seconds(r.t));
    raw.push_back(r.raw_rates[0]);
    adj.push_back(r.rates[0]);
    work.push_back(static_cast<double>(r.target[0]));
    max_rate = std::max(max_rate, r.raw_rates[0]);
  }
  const double equal_share = static_cast<double>(w.n) / cfg.slaves;

  print_normalized("raw rate (normalized to max)", times, raw, max_rate);
  std::cout << '\n';
  print_normalized("adjusted (filtered) rate", times, adj, max_rate);
  std::cout << '\n';
  print_normalized("work assignment (normalized to equal share)", times, work,
                   equal_share);

  // The numbers behind the charts.
  Table t("Fig 9 series (slave 0)");
  t.header({"t(s)", "raw", "adjusted", "work"});
  for (std::size_t i = 0; i < times.size(); ++i) {
    t.row()
        .cell(times[i], 1)
        .cell(raw[i] / max_rate, 3)
        .cell(adj[i] / max_rate, 3)
        .cell(work[i] / equal_share, 3);
  }
  print_table(t);
}

// Fig. 2 / §3.3: pipelined vs synchronous master interaction. "Experiments
// comparing the pipelined and synchronous approaches confirm that
// pipelining is important", the more so as network latency grows, because
// the synchronous round trip sits on every slave's critical path.
void pipeline(const Flags& f) {
  const int reps = f.get("reps", 2);
  const Workload w = f.sized({App::kMm, 500, 1, Load::kConstant});

  Table t("Ablation: pipelined vs synchronous master interaction "
          "(MM, 6 slaves, load on slave 0)");
  t.header({"net latency(ms)", "sync(s)", "pipelined(s)", "sync eff",
            "pipe eff"});
  for (double latency_ms : {0.1, 1.0, 5.0, 20.0}) {
    exp::ExperimentConfig cfg = exp::config(w, 6);
    cfg.world.net.latency = sim::from_seconds(latency_ms / 1000.0);
    cfg.lb.pipelined = false;
    const auto sync = measure(reps, w, cfg);
    cfg.lb.pipelined = true;
    const auto pipe = measure(reps, w, cfg);

    t.row()
        .cell(latency_ms, 1)
        .cell(sync.elapsed_s.mean(), 1)
        .cell(pipe.elapsed_s.mean(), 1)
        .cell(sync.efficiency.mean(), 2)
        .cell(pipe.efficiency.mean(), 2);
  }
  print_table(t);
}

// §3.2 refinements: rate filtering, the 10 % improvement threshold and the
// profitability determination phase, under the oscillating load they were
// designed for. Disabling them increases movement churn and usually hurts
// completion time.
void refinements(const Flags& f) {
  const int reps = f.get("reps", 2);
  const Workload w = f.sized({App::kMm, 500, 4, Load::kOscillating});

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
    exp::ExperimentConfig cfg = exp::config(w, 4);
    cfg.lb.filtering = v.filtering;
    cfg.lb.improvement_threshold = v.threshold;
    cfg.lb.profitability_check = v.profitability;
    const auto r = measure(reps, w, cfg);
    t.row()
        .cell(v.name)
        .cell_pm(r.elapsed_s.mean(), r.elapsed_s.range_halfwidth(), 1)
        .cell(r.efficiency.mean(), 2)
        .cell(r.last_stats.moves_ordered)
        .cell(r.last_stats.units_moved);
  }
  print_table(t);
}

// §4.2 / §4.4, Figs. 3-4: strip-mine grain size and hook placement.
//
// Part 1: SOR completion time across strip heights. Strips far below the
// scheduling quantum make per-strip synchronization dominate and quantum
// effects make execution erratic; far above it, the pipeline fills and
// drains slowly and balancing is less responsive. The startup calibration
// (~1.5 x quantum) should sit near the sweet spot.
//
// Part 2: the compiler's hook-placement rule on SOR's loop levels.
void grain(const Flags& f) {
  const int reps = f.get("reps", 2);
  Workload w = f.sized({App::kSor, 1000, 10, Load::kConstant});

  Table t("Ablation: SOR strip size (n=" + std::to_string(w.n) +
          ", 6 slaves, load on slave 0; quantum 100 ms)");
  t.header({"block rows", "time(s)", "efficiency", "units moved"});
  for (int bs : {1, 4, 0 /*auto*/, 120, 499}) {
    w.block_rows = bs;
    const auto r = measure(reps, w, exp::config(w, 6));
    t.row()
        .cell(bs == 0 ? std::string("auto (1.5x quantum)")
                      : std::to_string(bs))
        .cell_pm(r.elapsed_s.mean(), r.elapsed_s.range_halfwidth(), 1)
        .cell(r.efficiency.mean(), 2)
        .cell(r.last_stats.units_moved);
  }
  print_table(t);

  apps::SorConfig sor;
  sor.n = w.n;
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
  print_table(h);
}

// §4.7 extension: LU decomposition, with shrinking loop bounds, shrinking
// work units, active/inactive slices and automatic balancing-frequency
// adaptation. The paper analyzes LU but measures only MM and SOR. The key
// §4.7 claim: as work units shrink, the measured rate in units/s rises, so
// a fixed time period maps to more units between balances and the
// relative overhead stays bounded.
void lu(const Flags& f) {
  const int reps = f.get("reps", 2);
  Workload w = f.sized({App::kLu, 500});

  Table t("LU n=" + std::to_string(w.n) +
          " (done-flag termination, dynamic pivot-owner broadcast)");
  t.header({"slaves", "load?", "par(s)", "par+DLB(s)", "eff", "eff+DLB",
            "rounds", "units moved"});
  for (int s : {4, 6}) {
    for (const Load load : {Load::kNone, Load::kConstant}) {
      w.load = load;
      exp::ExperimentConfig cfg = exp::config(w, s);
      cfg.balance = false;
      const auto par = measure(reps, w, cfg);
      cfg.balance = true;
      const auto dlb = measure(reps, w, cfg);
      t.row()
          .cell(s)
          .cell(load == Load::kNone ? "no" : "slave 0")
          .cell(par.elapsed_s.mean(), 1)
          .cell(dlb.elapsed_s.mean(), 1)
          .cell(par.efficiency.mean(), 2)
          .cell(dlb.efficiency.mean(), 2)
          .cell(dlb.last_stats.rounds)
          .cell(dlb.last_stats.units_moved);
    }
  }
  print_table(t);
  std::cout << "note: LU balancing rounds stay far below the " << w.n - 1
            << " outer steps — the §4.7 frequency adaptation in action.\n";
}

struct Experiment {
  const char* name;
  void (*print)(const Flags&);
  App app;     // the application --n sizes
  int slaves;  // the most slaves it runs `app` on; 0: --max-slaves
};

// Paper order: what no name on the command line prints.
constexpr Experiment kExperiments[] = {
    {"tab1", table1, App::kMm, 1},
    {"fig5", fig5, App::kMm, 0},
    {"fig6", fig6, App::kSor, 0},
    {"fig7", fig7, App::kMm, 0},
    {"fig8", fig8, App::kSor, 0},
    {"fig9", fig9, App::kMm, 4},
    {"pipeline", pipeline, App::kMm, 6},
    {"refinements", refinements, App::kMm, 4},
    {"grain", grain, App::kSor, 6},
    {"lu", lu, App::kLu, 6},
};

std::string usage() {
  std::string u =
      "usage: nowlb-experiments [NAME ...] [--flag=value ...]\n"
      "Prints the named experiments, or all of them in paper order.\n"
      "experiments:";
  for (const Experiment& e : kExperiments) u += std::string(" ") + e.name;
  u += "\nflags: --reps --max-slaves --n --sweeps --repeats --help\n";
  return u;
}

/// Whether every flag value suits the chosen experiments; if not, says
/// which flag is out of range.
bool values_ok(const Cli& cli, const std::vector<const Experiment*>& chosen) {
  for (const char* flag : {"reps", "max-slaves", "n", "sweeps", "repeats"}) {
    if (cli.get_int(flag, 1) < 1) {
      std::cerr << "--" << flag << "=" << cli.get(flag, "")
                << " must be a positive integer\n";
      return false;
    }
  }
  if (!cli.has("n")) return true;
  const long long n = cli.get_int("n", 0);
  for (const Experiment* e : chosen) {
    const int slaves = e->slaves > 0 ? e->slaves
                                     : static_cast<int>(cli.get_int(
                                           "max-slaves", kMaxSlaves));
    const int least = exp::min_n(e->app, slaves);
    if (n < least) {
      std::cerr << "--n=" << n << " is too small for " << e->name << ": "
                << apps::app_name(e->app) << " on " << slaves
                << " slaves needs --n >= " << least << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "max-slaves", "n", "sweeps", "repeats"},
                usage());
  std::vector<const Experiment*> chosen;
  for (const std::string& name : cli.positional()) {
    const auto it = std::find_if(
        std::begin(kExperiments), std::end(kExperiments),
        [&](const Experiment& e) { return name == e.name; });
    if (it == std::end(kExperiments)) {
      std::cerr << "unknown experiment " << name << " (see --help)\n";
      return 2;
    }
    chosen.push_back(it);
  }
  if (chosen.empty()) {
    for (const Experiment& e : kExperiments) chosen.push_back(&e);
  }
  if (!values_ok(cli, chosen)) return 2;

  const Flags flags{cli};
  for (const Experiment* e : chosen) e->print(flags);
  return 0;
}
