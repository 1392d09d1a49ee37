#include "lb/plan.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/check.hpp"

#include "util/rng.hpp"

namespace nowlb::lb {
namespace {

// Apply transfers to a distribution and return the result (units clamped
// at zero would indicate an invalid plan; we check non-negativity at every
// intermediate state reachable by a topological execution, approximated by
// final-state checks plus chain-feasibility in the restricted tests).
std::vector<int> apply_transfers(const std::vector<int>& current,
                       const std::vector<Transfer>& ts) {
  std::vector<int> out = current;
  for (const auto& t : ts) {
    out[t.from_rank] -= t.count;
    out[t.to_rank] += t.count;
  }
  return out;
}

// ---------------------------------------------------------- unrestricted

TEST(PlanUnrestricted, SimpleSurplusToDeficit) {
  auto ts = plan_unrestricted({10, 0}, {5, 5});
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0], (Transfer{0, 1, 5}));
}

TEST(PlanUnrestricted, NoMovementWhenBalanced) {
  EXPECT_TRUE(plan_unrestricted({3, 3, 4}, {3, 3, 4}).empty());
}

TEST(PlanUnrestricted, MultiWayMatch) {
  auto ts = plan_unrestricted({9, 1, 2}, {4, 4, 4});
  EXPECT_EQ(apply_transfers({9, 1, 2}, ts), (std::vector<int>{4, 4, 4}));
  // Minimal total movement: exactly the surplus.
  EXPECT_EQ(units_moved(ts), 5);
  // No rank both sends and receives.
  for (const auto& t : ts) {
    for (const auto& u : ts) {
      EXPECT_FALSE(t.from_rank == u.to_rank && t.count > 0 && u.count > 0);
    }
  }
}

TEST(PlanUnrestricted, MismatchedTotalsThrow) {
  EXPECT_THROW(plan_unrestricted({5, 5}, {5, 6}), CheckFailure);
}

class PlanUnrestrictedProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlanUnrestrictedProperty, RandomizedInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = 2 + static_cast<int>(rng.below(7));
    std::vector<int> current(n), target(n);
    int total = 0;
    for (auto& c : current) {
      c = static_cast<int>(rng.below(50));
      total += c;
    }
    // Random re-partition of the same total.
    int left = total;
    for (int i = 0; i < n - 1; ++i) {
      target[i] = static_cast<int>(rng.below(static_cast<std::uint64_t>(left + 1)));
      left -= target[i];
    }
    target[n - 1] = left;

    auto ts = plan_unrestricted(current, target);
    EXPECT_EQ(apply_transfers(current, ts), target);
    // Movement is minimal: total transferred == total positive surplus.
    int surplus = 0;
    for (int i = 0; i < n; ++i) surplus += std::max(0, current[i] - target[i]);
    EXPECT_EQ(units_moved(ts), surplus);
    // Donors only send; receivers only receive.
    for (const auto& t : ts) {
      EXPECT_GT(t.count, 0);
      EXPECT_GT(current[t.from_rank], target[t.from_rank]);
      EXPECT_LT(current[t.to_rank], target[t.to_rank]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanUnrestrictedProperty,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ restricted

TEST(PlanRestricted, AdjacentOnly) {
  auto ts = plan_restricted({10, 0, 0}, {3, 4, 3});
  EXPECT_EQ(apply_transfers({10, 0, 0}, ts), (std::vector<int>{3, 4, 3}));
  for (const auto& t : ts) {
    EXPECT_EQ(std::abs(t.from_rank - t.to_rank), 1);
  }
}

TEST(PlanRestricted, ChainThroughIntermediate) {
  // All surplus on rank 0, deficit on rank 2: rank 1 forwards.
  auto ts = plan_restricted({6, 2, 1}, {3, 3, 3});
  // Boundary 1 shifts: rank0 sends 3 right; boundary 2: rank1 sends 2 right.
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], (Transfer{0, 1, 3}));
  EXPECT_EQ(ts[1], (Transfer{1, 2, 2}));
}

TEST(PlanRestricted, BothDirections) {
  auto ts = plan_restricted({1, 8, 1}, {3, 4, 3});
  EXPECT_EQ(apply_transfers({1, 8, 1}, ts), (std::vector<int>{3, 4, 3}));
  // Rank 1 sends 2 left and 2 right.
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], (Transfer{1, 0, 2}));
  EXPECT_EQ(ts[1], (Transfer{1, 2, 2}));
}

TEST(PlanRestricted, PreservesBlockDistribution) {
  // If current is a block partition of [0, total), the moved slices (edge
  // slices by construction in the slave) keep every rank contiguous. Here
  // we verify the *counts* invariant: prefix sums of target are the new
  // boundaries, and each transfer crosses exactly one boundary.
  const std::vector<int> current{5, 5, 5, 5};
  const std::vector<int> target{2, 8, 7, 3};
  auto ts = plan_restricted(current, target);
  EXPECT_EQ(apply_transfers(current, ts), target);
  for (const auto& t : ts) EXPECT_EQ(std::abs(t.from_rank - t.to_rank), 1);
}

class PlanRestrictedProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlanRestrictedProperty, RandomizedInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = 2 + static_cast<int>(rng.below(7));
    std::vector<int> current(n), target(n);
    int total = 0;
    for (auto& c : current) {
      c = static_cast<int>(rng.below(40));
      total += c;
    }
    int left = total;
    for (int i = 0; i < n - 1; ++i) {
      target[i] = static_cast<int>(rng.below(static_cast<std::uint64_t>(left + 1)));
      left -= target[i];
    }
    target[n - 1] = left;

    auto ts = plan_restricted(current, target);
    EXPECT_EQ(apply_transfers(current, ts), target);
    for (const auto& t : ts) {
      EXPECT_GT(t.count, 0);
      EXPECT_EQ(std::abs(t.from_rank - t.to_rank), 1);
    }
    // At most one transfer per boundary per direction.
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        EXPECT_FALSE(ts[i].from_rank == ts[j].from_rank &&
                     ts[i].to_rank == ts[j].to_rank);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanRestrictedProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------- decide

LbConfig cfg_with(double threshold, bool profit) {
  LbConfig cfg;
  cfg.improvement_threshold = threshold;
  cfg.profitability_check = profit;
  return cfg;
}

TEST(Decide, BalancedStaysPut) {
  auto d = decide(cfg_with(0.1, true), {10, 10}, {1.0, 1.0}, 0.01);
  EXPECT_EQ(d.gate, obs::Gate::kBelowThreshold);
  EXPECT_STREQ(d.reason, "below improvement threshold");
}

TEST(Decide, LargeImbalanceMoves) {
  auto d = decide(cfg_with(0.1, true), {20, 0}, {1.0, 1.0}, 0.01);
  EXPECT_EQ(d.gate, obs::Gate::kMove);
  EXPECT_STREQ(d.reason, "rebalance");
  EXPECT_EQ(d.target, (std::vector<int>{10, 10}));
  EXPECT_NEAR(d.improvement, 0.5, 1e-9);
}

TEST(Decide, ThresholdGatesSmallImbalance) {
  // 11 vs 9 at equal rates: projected 11 -> 10, improvement ~9 % < 10 %.
  auto d = decide(cfg_with(0.10, true), {11, 9}, {1.0, 1.0}, 0.0);
  EXPECT_EQ(d.gate, obs::Gate::kBelowThreshold);
  EXPECT_STREQ(d.reason, "below improvement threshold");
  // With a 5 % threshold the same situation moves.
  auto d2 = decide(cfg_with(0.05, true), {11, 9}, {1.0, 1.0}, 0.0);
  EXPECT_EQ(d2.gate, obs::Gate::kMove);
}

TEST(Decide, ProfitabilityCancelsExpensiveMove) {
  // Benefit is 20 s - 10 s = 10 s, but moving 10 units at 1.5 s/unit
  // costs 15 s: cancelled.
  auto d = decide(cfg_with(0.1, true), {20, 0}, {1.0, 1.0}, 1.5);
  EXPECT_EQ(d.gate, obs::Gate::kNotProfitable);
  EXPECT_STREQ(d.reason, "movement not profitable");
  // The endgame guard: the phase ends before moved work could land.
  auto late = decide(cfg_with(0.1, true), {20, 0}, {1.0, 1.0}, 0.0, 30.0);
  EXPECT_EQ(late.gate, obs::Gate::kNotProfitable);
  EXPECT_STREQ(late.reason, "movement not profitable");
  // Disabling the check lets it through (ablation).
  auto d2 = decide(cfg_with(0.1, false), {20, 0}, {1.0, 1.0}, 1.5);
  EXPECT_EQ(d2.gate, obs::Gate::kMove);
}

TEST(Decide, StalledSlaveForcesMove) {
  // A slave with work but zero rate makes current time infinite; movement
  // must happen regardless of cost.
  auto d = decide(cfg_with(0.1, true), {10, 10}, {0.0, 1.0}, 100.0);
  EXPECT_EQ(d.gate, obs::Gate::kMove);
  EXPECT_EQ(d.target, (std::vector<int>{0, 20}));
}

TEST(Decide, NoWorkNoMove) {
  auto d = decide(cfg_with(0.1, true), {0, 0}, {1.0, 1.0}, 0.01);
  EXPECT_EQ(d.gate, obs::Gate::kHold);
  EXPECT_STREQ(d.reason, "no work remaining");
}

TEST(Decide, AllStalledNoMove) {
  auto d = decide(cfg_with(0.1, true), {5, 5}, {0.0, 0.0}, 0.01);
  EXPECT_EQ(d.gate, obs::Gate::kHold);
  EXPECT_STREQ(d.reason, "no slave can make progress");
}

TEST(Decide, RestrictedModePlansAdjacent) {
  LbConfig cfg = cfg_with(0.1, false);
  cfg.movement = Movement::kRestricted;
  auto d = decide(cfg, {12, 0, 0}, {1.0, 1.0, 1.0}, 0.0);
  EXPECT_EQ(d.gate, obs::Gate::kMove);
  for (const auto& t : d.transfers)
    EXPECT_EQ(std::abs(t.from_rank - t.to_rank), 1);
  // Restricted movement keeps every rank at one unit or more: the
  // proportional share of the slow rank rounds to 0.
  auto starved = decide(cfg, {4, 4, 4}, {1.0, 1.0, 0.1}, 0.0);
  EXPECT_EQ(starved.gate, obs::Gate::kMove);
  EXPECT_EQ(starved.target[2], 1);
}

}  // namespace
}  // namespace nowlb::lb
