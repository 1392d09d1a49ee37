// The central load balancer (the "master", §3.1-3.3).
//
// Runs as its own simulated process. Each round it collects one status
// report per slave, filters the measured rates, computes a proportional
// redistribution, gates it by the improvement threshold and profitability,
// plans transfers (direct or adjacent-only), selects the next balancing
// period, and sends per-slave instructions. In pipelined mode instructions
// are issued one round ahead (instruction_lag) so slave blocking time is
// just the local send/receive cost.
//
// The master's control loop mirrors the slaves' phase structure (§4.1):
// ClusterConfig.phases is the number of distributed-loop invocations the
// generated program performs, so master and slaves execute the same number
// of balancing phases and terminate together. One round loop serves both
// terminations: a phase-counting phase ends when no work remains, and a
// done-flag run is one phase that ends when every rank has reported done.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "lb/config.hpp"
#include "lb/events.hpp"
#include "lb/filter.hpp"
#include "lb/frequency.hpp"
#include "lb/plan.hpp"
#include "lb/protocol.hpp"
#include "lb/transport.hpp"
#include "obs/ledger.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace nowlb::lb {

/// Aggregate counters, readable after the run for experiments/tests.
struct MasterStats {
  int rounds = 0;
  int moves_ordered = 0;        // rounds where movement was ordered
  int units_moved = 0;          // total units in ordered transfers
  int cancelled_threshold = 0;  // rounds gated by the 10 % threshold
  int cancelled_profit = 0;     // rounds cancelled by profitability
  double last_period_s = 0;
  int evictions = 0;            // ranks declared dead (fault tolerance)
  int orphans_reassigned = 0;   // orphaned units handed to survivors
};

/// True when a status report's measurement window says something about the
/// slave's capacity. Windows that measured nothing — an idle slave spinning
/// balance rounds, or a degenerate sub-millisecond window (including the
/// zeroed placeholder of a rank whose report never arrived) — must not
/// update the rate estimate, and in particular must never divide by the
/// ~zero elapsed time.
inline bool informative_window(const StatusReport& rep) {
  return rep.elapsed_s > 1e-4 && !(rep.units_done == 0 && rep.remaining == 0);
}

/// How the run ends.
enum class Termination {
  /// The master mirrors the generated program's loop structure: it runs
  /// `phases` distributed-loop invocations, detecting the end of each from
  /// all-zero remaining reports (MM repeats, SOR sweeps).
  kPhases,
  /// Free-running: slaves balance purely on hook counters (invocations
  /// synchronize among themselves, e.g. LU's pivot broadcast) and send a
  /// final done-flagged report when their whole computation ends. In this
  /// mode the master replies to each round's reports directly (slaves poll,
  /// so the reply is still off the critical path).
  kDoneFlags,
};

/// One run of the generated program: the master, every slave agent, the
/// experiment harness and the fuzzer's checkers all read it.
struct ClusterConfig {
  int slaves = 4;
  int phases = 1;  // distributed-loop invocations
  Termination termination = Termination::kPhases;
  LbConfig lb;
  /// Per-rank work units. Fault recovery expects the census to name them
  /// by the ids 0 .. sum - 1.
  std::vector<int> initial_counts;
  /// False: spawn no master; every slave agent then runs the static
  /// program (the paper's plain "parallel execution" baseline).
  bool use_master = true;
};

/// Rounds by which instructions trail the reports they are computed from
/// (Fig. 2): a pipelined phase-counting master answers round r's reports
/// with instructions for round r + 1, which each slave finds waiting at its
/// next balance. A synchronous master, and a done-flag master (its slaves
/// poll), answer round r's reports with round r's instructions.
inline int instruction_lag(const ClusterConfig& cfg) {
  return cfg.termination == Termination::kPhases && cfg.lb.pipelined ? 1 : 0;
}

/// Work units a rank completes before the first balance of each phase,
/// when no rate information exists yet: 5 % of its initial assignment, at
/// least one unit. Small, so rate information is established early in a
/// phase.
inline double first_window_units(int initial_count) {
  return std::max(1.0, 0.05 * static_cast<double>(initial_count));
}

class Master {
 public:
  /// `slave_pids` holds cfg.slaves pids in rank order; `stats` must
  /// outlive the run.
  Master(sim::Context& ctx, ClusterConfig cfg,
         std::vector<sim::Pid> slave_pids, MasterStats& stats);

  /// The master process body: run all phases to completion.
  sim::Task<> run();

 private:
  /// Balancing rounds until the phase ends: no work remains (phase
  /// counting) or no rank is active (done flags; a rank whose report says
  /// done leaves active_).
  sim::Task<> run_phase();
  /// Collect one report from every active rank. Under a heartbeat regime a
  /// rank whose report is more than heartbeat_timeout late is evicted and
  /// the collection returns partial; `collected_` holds the ranks actually
  /// heard from.
  sim::Task<std::vector<StatusReport>> collect_reports(int round);
  /// Send every active rank its instructions for `round`: its orders from
  /// `decision` and its next balancing period from rates_. A null decision
  /// (pipeline priming) orders nothing and carries ledger round 0.
  sim::Task<> send_instructions(int round, bool phase_done,
                                const Decision* decision);
  /// Update rate estimates and cost observations from the collected ranks.
  void process_measurements(const std::vector<StatusReport>& reports);
  /// Declare a rank dead: stop expecting traffic, zero its rate, queue the
  /// eviction notice for the next instructions, start recovery.
  void evict(int rank);
  /// Reconcile the survivors' inventory census against the global unit
  /// ids [0, sum(initial_counts)); assign any orphaned units to survivors
  /// (adopt orders attached to the next instructions). Clears
  /// recovery_pending_ once coverage is complete and nothing is left to
  /// assign.
  void reconcile_census(const std::vector<StatusReport>& reports,
                        int census_round);
  /// Attach the fault-tolerance trailer (eviction notices, adopt orders).
  void attach_ft(Instructions& ins, int rank);
  bool ft() const { return cfg_.lb.fault_tolerance(); }
  /// Gate + plan movement for the current remaining distribution, updating
  /// stats and the decision ledger.
  Decision make_decision(const std::vector<int>& remaining);
  /// Report the outcome of the collection just counted in stats_.rounds.
  /// Exactly one RoundClosed is emitted per report collection, so the
  /// decision ledger explains every balancing round, including phase
  /// wind-down and frozen ones.
  void close_round(obs::Gate gate, const char* reason,
                   const std::vector<int>& remaining, const Decision* d);
  int rank_of(sim::Pid pid) const;

  sim::Context& ctx_;
  ClusterConfig cfg_;
  std::vector<sim::Pid> slave_pids_;  // rank order
  Observers events_;
  /// Reports that arrived one round early (an idle slave can start round
  /// r+1 while slower slaves are still in round r); keyed implicitly by
  /// arrival order, bounded by one per slave.
  std::vector<std::pair<sim::Pid, StatusReport>> stashed_;
  int nslaves_;
  int round_ = 0;
  std::vector<TrendFilter> filters_;
  std::vector<double> rates_;      // filtered rate per rank (units/s)
  std::vector<double> raw_rates_;  // last raw rate per rank
  std::vector<bool> measured_;     // rank has produced an informative window
  FrequencyController freq_;
  double move_cost_per_unit_s_;
  MasterStats& stats_;
  std::vector<bool> active_;      // rank neither evicted nor done
  std::vector<bool> collected_;   // ranks heard from in the last collection

  // ---- fault tolerance (DESIGN.md §9) ----
  std::unique_ptr<Transport> transport_;
  std::vector<int> newly_evicted_;  // evictions not yet announced
  /// Census synchronization barrier. Eviction notices and adopt orders
  /// take effect when slaves apply the instructions carrying them, and the
  /// protocol guarantees a slave applies instructions r before reporting
  /// r+1 — so after instructions round `ft_sync_round_` carried FT state,
  /// the first inventory census that reflects it is the reports of round
  /// ft_sync_round_ + 1. Reconciling against an earlier census would
  /// re-assign orphans that are already adopted (double adoption).
  int ft_sync_round_ = -1;
  bool ft_sync_pending_ = false;  // FT state queued, not yet on the wire
  bool recovery_pending_ = false;
  std::vector<std::vector<std::int32_t>> adopt_orders_;  // per rank, queued
};

}  // namespace nowlb::lb
