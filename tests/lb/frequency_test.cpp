#include "lb/frequency.hpp"

#include <gtest/gtest.h>

namespace nowlb::lb {
namespace {

using sim::kMillisecond;
using sim::kSecond;

constexpr sim::Time kQuantum = 100 * kMillisecond;

LbConfig base() {
  LbConfig cfg;
  cfg.min_period = 500 * kMillisecond;
  cfg.initial_interaction_cost = 2 * kMillisecond;
  cfg.initial_move_cost = 50 * kMillisecond;
  return cfg;
}

TEST(Frequency, QuantumBoundDominatesByDefault) {
  FrequencyController f(base(), kQuantum);
  // 5 x 100ms quantum == 500ms == min period; everything else is smaller.
  EXPECT_EQ(f.period(), 500 * kMillisecond);
}

TEST(Frequency, InteractionCostRaisesPeriod) {
  FrequencyController f(base(), kQuantum);
  // Sustained 100 ms interactions push the estimate up; 20x bound kicks in.
  for (int i = 0; i < 10; ++i) f.observe_interaction(100 * kMillisecond);
  EXPECT_GT(f.period(), 1900 * kMillisecond);  // ~ 20 x 100ms
}

TEST(Frequency, MoveCostRaisesPeriod) {
  FrequencyController f(base(), kQuantum);
  for (int i = 0; i < 10; ++i) f.observe_move_event(20 * kSecond);
  // 0.1 x 20 s = 2 s > 500 ms floor.
  EXPECT_GT(f.period(), 1900 * kMillisecond);
}

TEST(Frequency, MinPeriodIsFloor) {
  const LbConfig cfg = base();
  FrequencyController f(cfg, kMillisecond);  // tiny quantum: 5x bound = 5 ms
  EXPECT_EQ(f.period(), cfg.min_period);
}

TEST(Frequency, UnitsForPeriodScalesWithRate) {
  FrequencyController f(base(), kQuantum);  // period 500 ms
  EXPECT_DOUBLE_EQ(f.units_for_period(100.0), 50.0);
  EXPECT_DOUBLE_EQ(f.units_for_period(2.0), 1.0);  // at least one unit
  EXPECT_DOUBLE_EQ(f.units_for_period(0.0), 1.0);
}

TEST(Frequency, EwmaConverges) {
  FrequencyController f(base(), kQuantum);
  for (int i = 0; i < 20; ++i) f.observe_interaction(10 * kMillisecond);
  EXPECT_NEAR(sim::to_seconds(f.interaction_cost()), 0.010, 0.001);
}

TEST(Frequency, ShrinkingWorkUnitsReduceRelativeOverhead) {
  // §4.7: as per-unit cost shrinks, rate (units/s) grows, so the same
  // period maps to more units between balances — relative overhead drops.
  FrequencyController f(base(), kQuantum);
  const double early_rate = 10.0;   // big LU columns
  const double late_rate = 1000.0;  // small LU columns
  EXPECT_LT(f.units_for_period(early_rate), f.units_for_period(late_rate));
}

}  // namespace
}  // namespace nowlb::lb
