// Movement planning: turn (current, target) distributions into transfer
// instructions, gated by the 10 % improvement threshold and the
// profitability determination phase (§3.2).
#pragma once

#include <vector>

#include "lb/config.hpp"
#include "obs/ledger.hpp"

namespace nowlb::lb {

/// A planned work transfer of `count` units from one rank to another.
struct Transfer {
  int from_rank = 0;
  int to_rank = 0;
  int count = 0;
  friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// Direct any-to-any transfers (Fig. 1a): greedily match the largest
/// surplus with the largest deficit. Transfer count is minimal (total
/// surplus) and no rank both sends and receives.
std::vector<Transfer> plan_unrestricted(const std::vector<int>& current,
                                        const std::vector<int>& target);

/// Adjacent-only transfers preserving a block distribution (Fig. 1b):
/// computed from prefix-sum boundary shifts, so intermediate ranks forward
/// work along the chain within a single round.
std::vector<Transfer> plan_restricted(const std::vector<int>& current,
                                      const std::vector<int>& target);

int units_moved(const std::vector<Transfer>& transfers);

/// Full per-round balancing decision.
struct Decision {
  /// kMove, kBelowThreshold, kNotProfitable, or kHold when no target can
  /// help (no work, or no slave makes progress).
  obs::Gate gate = obs::Gate::kHold;
  std::vector<int> target;          // equals current unless gate is kMove
  std::vector<Transfer> transfers;  // empty unless gate is kMove
  double projected_current_s = 0;   // completion time of current distribution
  double projected_new_s = 0;       // completion time of proportional target
  double improvement = 0;           // relative reduction
  double est_move_cost_s = 0;
  const char* reason = "";          // why movement was (not) ordered
};

/// Decide whether and how to redistribute: proportional allocation (with
/// a one-unit floor per slave under restricted movement), the >= threshold
/// improvement gate, and (optionally) the profitability check comparing
/// estimated movement cost against the projected benefit.
/// `lag_s` is the expected delay until moved work lands (about one
/// balancing period with pipelined instructions): when the remaining work
/// completes sooner than that, movement cannot pay off in this invocation
/// and only churns the distribution.
Decision decide(const LbConfig& cfg, const std::vector<int>& current,
                const std::vector<double>& rates,
                double move_cost_per_unit_s, double lag_s = 0.0);

}  // namespace nowlb::lb
