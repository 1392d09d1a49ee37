#include "lb/filter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lb/master.hpp"

namespace nowlb::lb {
namespace {

TEST(TrendFilter, FirstSamplePassesThrough) {
  TrendFilter f;
  EXPECT_DOUBLE_EQ(f.update(10.0), 10.0);
  EXPECT_TRUE(f.initialized());
}

TEST(TrendFilter, DampsIsolatedSpike) {
  TrendFilter f;
  f.update(10.0);
  const double after_spike = f.update(100.0);
  // Only 30 % of the spike passes through.
  EXPECT_DOUBLE_EQ(after_spike, 10.0 + 0.3 * 90.0);
}

TEST(TrendFilter, TrendAcceleratesConvergence) {
  TrendFilter slow;
  for (int i = 0; i < 4; ++i) slow.update(10.0);  // settle at 10
  // Step change sustained: after `kTrendLen` same-direction moves, the
  // filter switches to the fast weight and closes the gap quickly.
  double v = 0;
  for (int i = 0; i < 6; ++i) v = slow.update(100.0);
  EXPECT_GT(v, 95.0);
  EXPECT_GE(slow.trend_run(), 3);
}

TEST(TrendFilter, OscillationStaysDamped) {
  TrendFilter f;
  f.update(50.0);
  // Alternating samples never build a trend run >= 3.
  for (int i = 0; i < 20; ++i) f.update(i % 2 ? 100.0 : 0.0);
  EXPECT_LT(f.trend_run(), 3);
  // Filtered value stays in the middle band rather than pinning to extremes.
  EXPECT_GT(f.value(), 20.0);
  EXPECT_LT(f.value(), 80.0);
}

TEST(TrendFilter, TracksDropWithLag) {
  // Fig. 9 behaviour: a sustained drop is followed, but the adjusted rate
  // lags the raw rate.
  TrendFilter f;
  for (int i = 0; i < 10; ++i) f.update(100.0);
  std::vector<double> path;
  for (int i = 0; i < 6; ++i) path.push_back(f.update(40.0));
  EXPECT_GT(path.front(), 40.0);      // lags at first
  EXPECT_NEAR(path.back(), 40.0, 2.0);  // converged
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_LT(path[i], path[i - 1]);  // monotone pursuit
}

TEST(TrendFilter, ResetClearsState) {
  TrendFilter f;
  f.update(5.0);
  f.reset();
  EXPECT_FALSE(f.initialized());
  EXPECT_DOUBLE_EQ(f.update(7.0), 7.0);
}

TEST(TrendFilter, ConstantInputIsFixedPoint) {
  TrendFilter f;
  f.update(42.0);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(f.update(42.0), 42.0);
}

TEST(TrendFilter, ForceOverridesWithoutBuildingATrend) {
  TrendFilter f;
  for (int i = 0; i < 5; ++i) f.update(100.0 + i);  // direction run going up
  f.force(10.0);
  EXPECT_DOUBLE_EQ(f.value(), 10.0);
  EXPECT_EQ(f.trend_run(), 0);
}

// The master updates a slave's rate only from informative windows — the
// gate that keeps a missing report's zeroed placeholder (elapsed 0) out of
// the units/elapsed division. These mirror the cases process_measurements
// sees with a crashed or silent rank.
TEST(InformativeWindow, MissingReportPlaceholderIsNotInformative) {
  StatusReport rep{};  // exactly what an unheard rank contributes
  EXPECT_FALSE(informative_window(rep));
}

TEST(InformativeWindow, DegenerateElapsedIsNotInformative) {
  StatusReport rep{};
  rep.units_done = 5;
  rep.remaining = 3;
  rep.elapsed_s = 0.0;  // would divide by ~zero
  EXPECT_FALSE(informative_window(rep));
  rep.elapsed_s = 1e-5;  // sub-threshold window
  EXPECT_FALSE(informative_window(rep));
}

TEST(InformativeWindow, IdleSlaveWindowIsNotInformative) {
  StatusReport rep{};
  rep.units_done = 0;  // spun balance rounds with no work
  rep.remaining = 0;
  rep.elapsed_s = 0.5;
  EXPECT_FALSE(informative_window(rep));
}

TEST(InformativeWindow, WorkingWindowIsInformative) {
  StatusReport rep{};
  rep.units_done = 12;
  rep.remaining = 4;
  rep.elapsed_s = 0.25;
  EXPECT_TRUE(informative_window(rep));
}

TEST(InformativeWindow, StarvedButBusyWindowIsInformative) {
  // Zero units completed but work still queued: the window measured a
  // genuinely slow slave, not an idle one.
  StatusReport rep{};
  rep.units_done = 0;
  rep.remaining = 6;
  rep.elapsed_s = 0.25;
  EXPECT_TRUE(informative_window(rep));
}

}  // namespace
}  // namespace nowlb::lb
