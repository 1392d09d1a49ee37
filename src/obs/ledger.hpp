// Decision ledger: one record per balancing round.
//
// The lb recorder (lb/record.cpp) appends, for every report collection
// the master closes, the inputs it saw (raw and filtered rates, remaining
// work), the gate outcome (moved, cancelled below the improvement
// threshold, cancelled as unprofitable, frozen during fault recovery, ...)
// and the ordered moves. The ledger is the substrate for `nowlb-inspect
// --format=explain`: a human-readable "why did / didn't it move" timeline
// for any recorded run, and the input to check::LedgerChecker's
// arithmetic cross-check.
//
// obs cannot depend on lb (it sits below it in the library stack), so the
// ledger carries its own Move type rather than lb::Transfer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace nowlb::obs {

/// Why a round did or did not order moves.
enum class Gate : std::uint8_t {
  kMove,            // decision passed all gates; moves were ordered
  kBelowThreshold,  // projected improvement under the configured threshold
  kNotProfitable,   // improvement would not amortize the movement cost
  kHold,            // planner found no beneficial target (no-op decision)
  kRecoveryFreeze,  // movement frozen while fault recovery is pending
  kPhaseEnd,        // all work consumed; phase wind-down round
  kFinalReports,    // pipelined drain: final report collection, no decision
};

const char* gate_name(Gate g);

/// Whether the planner ran in a round that closed with `g` (move, below
/// threshold, not profitable, hold) rather than winding down or freezing.
bool planner_ran(Gate g);

/// One ordered work movement (counts are work units, e.g. matrix rows).
struct Move {
  int from = 0;
  int to = 0;
  long count = 0;
};

/// Everything the master knew and decided in one balancing round.
struct DecisionRecord {
  std::uint64_t round = 0;  // 1-based, matches MasterStats::rounds
  Time t = 0;          // simulated time the decision was made
  Gate gate = Gate::kHold;
  std::string reason;  // planner/master reason string ("rebalance", ...)

  // Inputs: per-rank, indexed by slave rank.
  std::vector<double> raw_rates;  // latest reported rates (units/s)
  std::vector<double> rates;      // trend-filtered rates the planner used
  std::vector<long> remaining;    // remaining work per rank before moves

  // Outputs.
  std::vector<long> target;  // planned assignment per rank after moves
  std::vector<Move> moves;   // ordered transfers (empty unless kMove)
  double improvement = 0;    // projected fractional improvement
  double projected_current_s = 0;
  double projected_new_s = 0;
  double est_move_cost_s = 0;
  double period_s = 0;  // balancing period in force this round
};

class DecisionLedger {
 public:
  void append(DecisionRecord r) { records_.push_back(std::move(r)); }

  const std::vector<DecisionRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Human-readable timeline of every round ("why did/didn't it move").
  std::string explain() const;

  /// The lines explain() prints for a single record.
  static std::string explain_line(const DecisionRecord& r);

 private:
  std::vector<DecisionRecord> records_;
};

}  // namespace nowlb::obs
