// Experiment harness: runs the paper's measurement scenarios and computes
// its metrics (§5.1).
//
//   speedup    = T_sequential / T_elapsed
//   efficiency = T_sequential / sum_over_slaves(T_elapsed - T_competing)
//
// where T_competing is the CPU time consumed by competing tasks on each
// slave's workstation (the paper's getrusage measurement; exact here).
// The sequential time is the calibrated cost model's single-processor
// execution time.
#pragma once

#include <functional>
#include <vector>

#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "lb/cluster.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"
#include "util/stats.hpp"

namespace nowlb::exp {

/// A competing load to attach to one slave's host.
struct LoadSpec {
  int rank = 0;
  std::function<sim::ProcessBody()> make;
};

/// One measured run.
struct Measurement {
  double elapsed_s = 0;     // application completion (wall, virtual)
  double seq_s = 0;         // sequential execution time
  double speedup = 0;       // seq / elapsed
  double efficiency = 0;    // paper's resource-usage efficiency
  double competing_cpu_s = 0;  // total competing CPU during the run
  lb::MasterStats stats;
  /// Engine determinism fingerprint and event count for the run — the
  /// perf/determinism suites assert these are bit-identical across
  /// repeats and across host-side optimizations.
  std::uint64_t trace_hash = 0;
  std::uint64_t dispatched_events = 0;
};

struct ExperimentConfig {
  int slaves = 4;
  /// False runs the static program: the same slaves with no master.
  bool balance = true;
  lb::LbConfig lb;
  sim::WorldConfig world;
  std::vector<LoadSpec> loads;
  /// Extract the run's balancing timeline into the Trace output.
  bool want_trace = false;
  /// Optional external flight recorder (not owned; must outlive the run),
  /// e.g. the hub a run file is written from. A hub records one run:
  /// every run restarts hosts, pids and virtual time at 0. When null and
  /// want_trace is set, a run-local hub is created automatically.
  obs::Observability* obs = nullptr;
};

/// A run's balancing timeline (for Fig. 9-style plots).
struct Trace {
  /// Decision-ledger records, one per balancing round (all gates,
  /// including phase wind-down and recovery-frozen rounds; filter with
  /// obs::planner_ran).
  std::vector<obs::DecisionRecord> rounds;
};

Measurement run_mm(const apps::MmConfig& app, const ExperimentConfig& cfg,
                   Trace* trace = nullptr);
Measurement run_sor(const apps::SorConfig& app, const ExperimentConfig& cfg,
                    Trace* trace = nullptr);
Measurement run_lu(const apps::LuConfig& app, const ExperimentConfig& cfg,
                   Trace* trace = nullptr);

/// Paper-calibrated defaults: 100 ms quantum hosts on a 100 MB/s network,
/// 500 ms minimum balancing period.
sim::WorldConfig paper_world();
lb::LbConfig paper_lb();

/// Run `reps` repetitions with varied world seeds, accumulating the three
/// headline numbers ("average of at least 3 measurements" with range bars).
struct RepeatedMeasurement {
  Accumulator elapsed_s;
  Accumulator speedup;
  Accumulator efficiency;
  lb::MasterStats last_stats;
};
RepeatedMeasurement repeat(
    int reps, const ExperimentConfig& cfg,
    const std::function<Measurement(const ExperimentConfig&)>& run_once);

}  // namespace nowlb::exp
