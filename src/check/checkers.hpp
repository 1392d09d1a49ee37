// Concrete invariants over the load-balancing runtime. Each checker is
// independent and purely observational; add the ones that apply to the
// scenario's configuration to an InvariantSet (see scenario.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "check/invariant.hpp"

namespace nowlb::sim {
class World;
}

namespace nowlb::obs {
class DecisionLedger;
}

namespace nowlb::lb {
struct ClusterConfig;
}

namespace nowlb::check {

/// Work conservation. Units leave a rank only by being packed onto the
/// wire and enter only by being unpacked; every packed transfer must be
/// unpacked by its destination with the exact same unit count (per-edge
/// FIFO — the network preserves per-pair ordering), and no transfer may be
/// in flight when the run ends. Also validates the master's plans (targets
/// redistribute exactly the reported remaining work) and report sanity
/// (no negative counts or durations). Transfers on an edge touching an
/// evicted rank are written off: the sender or receiver is gone and the
/// orphan-recovery path (EvictionChecker) accounts for the units instead.
class WorkConservationChecker final : public Invariant {
 public:
  const char* name() const override { return "conservation"; }

  void on(sim::Time t, const lb::Event& ev) override;
  void on_run_end(sim::Time t) override;

 private:
  // (from, to) -> FIFO of packed-but-not-yet-unpacked unit counts.
  std::map<std::pair<int, int>, std::vector<int>> in_flight_;
  std::set<int> dead_;
};

/// Block-distribution contiguity (restricted / adjacent-shift mode only,
/// Fig. 1b). Every planned transfer is between adjacent ranks; each rank's
/// slice set is a contiguous index range at every stable point (after a
/// complete pack or unpack — mid-unpack the set is legitimately gappy);
/// and at run end the per-rank blocks are disjoint and ordered by rank.
class ContiguityChecker final : public Invariant {
 public:
  explicit ContiguityChecker(int nslaves) : sets_(nslaves) {}
  const char* name() const override { return "contiguity"; }

  void on(sim::Time t, const lb::Event& ev) override;
  void on_slice_added(sim::Time t, int rank, data::SliceId id) override;
  void on_slice_removed(sim::Time t, int rank, data::SliceId id) override;
  void on_run_end(sim::Time t) override;

 private:
  void check_contiguous(sim::Time t, int rank, const char* when);

  std::vector<std::set<data::SliceId>> sets_;
};

/// Pipelining lag (Fig. 2). The master computes the instructions for round
/// r + lag from round r's reports, lag being the run's lb::instruction_lag.
/// On the slave side an applied instruction's round is the slave's last
/// report round, or one ahead of it (a pre-sent pipelined instruction
/// caught by a wildcard receive) — never stale, never further ahead.
class PipelineLagChecker final : public Invariant {
 public:
  explicit PipelineLagChecker(int lag) : lag_(lag) {}
  const char* name() const override { return "pipeline"; }

  void on(sim::Time t, const lb::Event& ev) override;

 private:
  int lag_;
  int last_collected_ = 0;
  std::map<int, int> last_report_;  // rank -> round of last report sent
};

/// No-duplicate / no-lost slice ownership — the property LU's pivot-owner
/// broadcast (§4.6) silently depends on. Every slice id is held by exactly
/// one rank or is in flight between two; at run end nothing is in flight
/// and (when the scenario knows the total) every slice is accounted for.
/// A slice re-added while its recorded owner is an evicted rank is an
/// adoption, not a duplicate: ownership transfers silently. The run-end
/// checks stay strict — they are exactly what proves recovery re-homed
/// every orphan.
class SliceOwnershipChecker final : public Invariant {
 public:
  /// `expected_total` < 0 disables the end-of-run coverage check.
  explicit SliceOwnershipChecker(int expected_total = -1)
      : expected_total_(expected_total) {}
  const char* name() const override { return "ownership"; }

  void on_slice_added(sim::Time t, int rank, data::SliceId id) override;
  void on_slice_removed(sim::Time t, int rank, data::SliceId id) override;
  void on(sim::Time t, const lb::Event& ev) override;
  void on_run_end(sim::Time t) override;

 private:
  int expected_total_;
  std::map<data::SliceId, int> owner_;   // id -> holding rank
  std::set<data::SliceId> in_flight_;    // removed, not yet re-added
  std::set<int> dead_;
};

/// Fault-recovery bookkeeping. Every orphaned unit id the master assigns
/// must go to a live rank, be adopted exactly once by that rank, and no
/// assignment may still be outstanding at run end; a rank must never adopt
/// units it was not assigned. (No-op in fault-free runs: no events fire.)
class EvictionChecker final : public Invariant {
 public:
  const char* name() const override { return "eviction"; }

  void on(sim::Time t, const lb::Event& ev) override;
  void on_run_end(sim::Time t) override;

 private:
  std::set<int> dead_;
  std::map<int, int> pending_;  // unit id -> assigned rank, not yet adopted
  int adopted_total_ = 0;
};

/// Reliable-transport delivery order: per (src, dst, tag) channel the
/// delivered sequence numbers are strictly consecutive from 0 — no loss,
/// no duplicate, no reorder survives the retransmit/ack layer. Retry
/// exhaustion (gave-up) is not checked: it is legal both towards a crashed
/// peer racing its own eviction and towards a finished peer whose last ack
/// was lost; a gave-up that actually loses protocol state surfaces through
/// the termination / conservation / oracle checks.
class TransportChecker final : public Invariant {
 public:
  const char* name() const override { return "transport"; }

  void on(sim::Time t, const lb::Event& ev) override;

 private:
  std::map<std::tuple<sim::Pid, sim::Pid, int>, std::uint32_t> next_seq_;
};

/// Decision-ledger arithmetic: cross-checks the flight recorder against
/// the invariant bus. Exactly one ledger record per completed report
/// collection; a moved round's ordered transfers redistribute exactly the
/// reported remaining work (per rank, target - remaining == inflow -
/// outflow); a cancelled or wind-down round orders zero moves and leaves
/// the assignment untouched (target == remaining).
class LedgerChecker final : public Invariant {
 public:
  /// `ledger` must outlive the checker; records already present at
  /// construction (a hub shared across runs) are skipped.
  explicit LedgerChecker(const obs::DecisionLedger* ledger);
  const char* name() const override { return "ledger"; }

  void on(sim::Time t, const lb::Event& ev) override;
  void on_run_end(sim::Time t) override;

 private:
  const obs::DecisionLedger* ledger_;
  std::size_t start_;               // records present before this run
  std::uint64_t collections_ = 0;   // report collections observed
};

/// Crash-fault injector: kills one slave process the first time the master
/// completes a report collection for round >= `trigger_round`. Not a
/// checker — it perturbs the simulated system — but it rides the invariant
/// bus because the master's collection loop is the only deterministic,
/// app-independent place to anchor "mid-run" on.
class CrashInjector final : public Invariant {
 public:
  CrashInjector(sim::World& world, sim::Pid victim, int trigger_round)
      : world_(world), victim_(victim), trigger_round_(trigger_round) {}
  const char* name() const override { return "crash-injector"; }

  void on(sim::Time t, const lb::Event& ev) override;
  bool fired() const { return fired_; }

 private:
  sim::World& world_;
  sim::Pid victim_;
  int trigger_round_;
  bool fired_ = false;
};

/// The full checker complement for the run `cfg` describes: conservation +
/// pipeline lag + ownership + eviction + transport always (the fault
/// checkers are no-ops in fault-free runs); contiguity only in
/// restricted-movement mode.
void add_standard_checkers(InvariantSet& set, const lb::ClusterConfig& cfg);

}  // namespace nowlb::check
