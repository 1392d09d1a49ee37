#include "lb/plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "lb/allocate.hpp"
#include "util/check.hpp"

namespace nowlb::lb {

std::vector<Transfer> plan_unrestricted(const std::vector<int>& current,
                                        const std::vector<int>& target) {
  NOWLB_CHECK(current.size() == target.size());
  NOWLB_CHECK(std::accumulate(current.begin(), current.end(), 0) ==
                  std::accumulate(target.begin(), target.end(), 0),
              "current and target must partition the same work");

  // (surplus, rank) donors and (deficit, rank) receivers, largest first.
  std::vector<std::pair<int, int>> donors, receivers;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const int d = current[i] - target[i];
    if (d > 0) donors.emplace_back(d, static_cast<int>(i));
    if (d < 0) receivers.emplace_back(-d, static_cast<int>(i));
  }
  auto by_size = [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::sort(donors.begin(), donors.end(), by_size);
  std::sort(receivers.begin(), receivers.end(), by_size);

  std::vector<Transfer> out;
  std::size_t di = 0, ri = 0;
  while (di < donors.size() && ri < receivers.size()) {
    const int n = std::min(donors[di].first, receivers[ri].first);
    out.push_back({donors[di].second, receivers[ri].second, n});
    donors[di].first -= n;
    receivers[ri].first -= n;
    if (donors[di].first == 0) ++di;
    if (receivers[ri].first == 0) ++ri;
  }
  NOWLB_CHECK(di == donors.size() && ri == receivers.size(),
              "unmatched surplus/deficit");
  return out;
}

std::vector<Transfer> plan_restricted(const std::vector<int>& current,
                                      const std::vector<int>& target) {
  NOWLB_CHECK(current.size() == target.size());
  NOWLB_CHECK(std::accumulate(current.begin(), current.end(), 0) ==
                  std::accumulate(target.begin(), target.end(), 0),
              "current and target must partition the same work");
  // Boundary j sits between ranks j-1 and j. With block distributions the
  // prefix sums are the boundary positions; the flow across boundary j is
  // the difference of old and new prefixes.
  std::vector<Transfer> out;
  int old_prefix = 0, new_prefix = 0;
  for (std::size_t j = 1; j < current.size(); ++j) {
    old_prefix += current[j - 1];
    new_prefix += target[j - 1];
    const int flow = old_prefix - new_prefix;
    if (flow > 0) {
      // Boundary moves left: rank j-1 now ends earlier, so its highest
      // slices go right to rank j.
      out.push_back({static_cast<int>(j - 1), static_cast<int>(j), flow});
    } else if (flow < 0) {
      // Boundary moves right: rank j's lowest slices go left to rank j-1.
      out.push_back({static_cast<int>(j), static_cast<int>(j - 1), -flow});
    }
  }
  return out;
}

int units_moved(const std::vector<Transfer>& transfers) {
  int n = 0;
  for (const auto& t : transfers) n += t.count;
  return n;
}

Decision decide(const LbConfig& cfg, const std::vector<int>& current,
                const std::vector<double>& rates,
                double move_cost_per_unit_s, double lag_s) {
  Decision d;
  d.target = current;
  const int total = std::accumulate(current.begin(), current.end(), 0);
  if (total == 0) {
    d.reason = "no work remaining";
    return d;
  }

  std::vector<int> target = proportional_allocation(rates, total);
  if (cfg.movement == Movement::kRestricted &&
      total >= static_cast<int>(target.size())) {
    // Keep every rank at one unit or more, taking from the largest holder.
    for (std::size_t i = 0; i < target.size(); ++i) {
      while (target[i] < 1) {
        const auto donor = std::max_element(target.begin(), target.end());
        NOWLB_CHECK(*donor > 1);
        --*donor;
        ++target[i];
      }
    }
  }
  d.projected_current_s = projected_time(current, rates);
  d.projected_new_s = projected_time(target, rates);

  const bool cur_inf = std::isinf(d.projected_current_s);
  const bool new_inf = std::isinf(d.projected_new_s);
  if (cur_inf && new_inf) {
    d.reason = "no slave can make progress";
    return d;
  }
  d.improvement =
      cur_inf ? 1.0
              : (d.projected_current_s - d.projected_new_s) /
                    d.projected_current_s;

  // Refinement 2 (§3.2): don't move unless the projected reduction in
  // execution time is at least the threshold (10 %).
  if (d.improvement < cfg.improvement_threshold) {
    d.gate = obs::Gate::kBelowThreshold;
    d.reason = "below improvement threshold";
    return d;
  }

  auto transfers = cfg.movement == Movement::kRestricted
                       ? plan_restricted(current, target)
                       : plan_unrestricted(current, target);
  // Transfers proceed in parallel across slave pairs; the movement cost on
  // the critical path is the busiest rank's involvement, not the total.
  std::vector<int> involvement(current.size(), 0);
  for (const auto& t : transfers) {
    involvement[t.from_rank] += t.count;
    involvement[t.to_rank] += t.count;
  }
  const int busiest =
      transfers.empty()
          ? 0
          : *std::max_element(involvement.begin(), involvement.end());
  d.est_move_cost_s = busiest * move_cost_per_unit_s;

  // Refinement 3 (§3.2): profitability determination — cancel the movement
  // if its estimated cost exceeds the projected benefit, or if the phase
  // will finish before the moved work can land (endgame guard).
  if (cfg.profitability_check && !cur_inf) {
    const double benefit = d.projected_current_s - d.projected_new_s;
    if (d.projected_current_s < lag_s || d.est_move_cost_s > benefit) {
      d.gate = obs::Gate::kNotProfitable;
      d.reason = "movement not profitable";
      return d;
    }
  }

  d.gate = obs::Gate::kMove;
  d.target = target;
  d.transfers = std::move(transfers);
  d.reason = "rebalance";
  return d;
}

}  // namespace nowlb::lb
