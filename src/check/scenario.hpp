// Seeded scenario generation and execution for the simulation fuzzer.
//
// One seed deterministically fixes everything about a run — slave count,
// problem size, heterogeneous message costs, competing-load placement,
// balancing configuration, termination mode — so any failure is replayed
// exactly by re-running the seed. run_scenario() executes the scenario
// with the full invariant complement attached plus a watchdog time bound,
// then cross-checks the numerical result against the sequential oracle.
#pragma once

#include <cstdint>
#include <string>

#include "apps/app.hpp"
#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "check/invariant.hpp"
#include "sim/config.hpp"

namespace nowlb::obs {
struct Observability;
}

namespace nowlb::check {

using apps::App;
using apps::app_name;

/// Fault-injection plan layered onto a generated scenario. All fields
/// default to off, and generate_scenario() draws nothing for it, so
/// fault-free seeds are bit-identical with or without this feature.
struct FaultPlan {
  double drop_rate = 0;         // network drop probability
  double dup_rate = 0;          // network duplication probability
  sim::Time reorder_delay = 0;  // max extra per-message delay (reordering)
  int kill_rank = -1;           // slave to crash-fault (-1: none)
  int kill_round = 3;           // master collection round to crash at

  bool any() const {
    return drop_rate > 0 || dup_rate > 0 || reorder_delay > 0 ||
           kill_rank >= 0;
  }
};

/// Everything a run needs, derived deterministically from (seed, app).
struct Scenario {
  std::uint64_t seed = 0;
  App app = App::kMm;

  int slaves = 1;
  sim::WorldConfig world;
  lb::LbConfig lb;
  apps::MmConfig mm;
  apps::SorConfig sor;
  apps::LuConfig lu;

  /// Competing-load generator per rank: 0 none, 1 constant, 2 oscillating,
  /// 3 ramp, 4 random bursts.
  std::vector<int> loads;
  /// Oscillating-load period (also scales ramp/burst durations).
  sim::Time load_period = 0;

  /// Watchdog: the run must terminate within this much virtual time.
  sim::Time time_bound = 0;

  /// Active fault plan (off unless apply_fault_plan was called).
  FaultPlan faults;

  /// One-line human-readable summary for failure output.
  std::string describe() const;
};

Scenario generate_scenario(std::uint64_t seed, App app);

/// Layer a fault plan onto a generated scenario: arms the lossy network on
/// the lb protocol tags, enables the reliable transport, and — for a kill
/// plan — enables the heartbeat regime, guarantees a survivor rank, and
/// widens the watchdog bound to absorb detection and recovery time.
/// Crash faults are only supported for MM (SOR's ghost chain and LU's
/// pivot broadcast have no recovery path); a kill plan on another app is
/// dropped, keeping the message-level faults.
void apply_fault_plan(Scenario& sc, const FaultPlan& plan);

struct FuzzResult {
  bool ok = true;
  std::vector<Failure> failures;
  double elapsed_s = 0;          // virtual time at run end
  std::uint64_t trace_hash = 0;  // engine event-trace hash (determinism)
};

/// Execute the scenario under all applicable checkers. An exception thrown
/// inside a simulated process ends the run and is recorded as a `process`
/// failure. `fault` corrupts the observation stream (never the simulated
/// system) to exercise the failure path. With `obs` set, the flight
/// recorder is attached to the run (traces, metrics, decision ledger) and
/// a LedgerChecker cross-checks the ledger arithmetic against the
/// invariant set; recording never perturbs the simulation, so the trace
/// hash is identical either way.
FuzzResult run_scenario(const Scenario& sc,
                        InvariantSet::Fault fault = InvariantSet::Fault::kNone,
                        obs::Observability* obs = nullptr);

}  // namespace nowlb::check
