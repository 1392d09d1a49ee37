// Compiler-layer tests: grain-size control, hook placement, spec analysis.
#include <gtest/gtest.h>

#include "loop/grain.hpp"
#include "loop/hooks.hpp"
#include "loop/spec.hpp"

namespace nowlb::loop {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(Grain, TargetIsOneAndAHalfQuanta) {
  EXPECT_EQ(grain_target(100 * kMillisecond), 150 * kMillisecond);
}

TEST(Grain, BlockSizeDividesTargetByIterationCost) {
  EXPECT_EQ(block_size_for(150 * kMillisecond, 10 * kMillisecond, 1000), 15);
}

TEST(Grain, BlockSizeClampedToOne) {
  EXPECT_EQ(block_size_for(150 * kMillisecond, kSecond, 1000), 1);
}

TEST(Grain, BlockSizeClampedToExtent) {
  EXPECT_EQ(block_size_for(kSecond, kMillisecond, 20), 20);
}

TEST(Hooks, PicksDeepestAffordableLevel) {
  // Hook overhead 20 us; 1% rule needs body cost >= 2 ms.
  std::vector<HookLevel> levels{
      {"outer", 10 * kSecond},
      {"strip", 100 * kMillisecond},
      {"iteration", 500 * sim::kMicrosecond},  // too cheap: 4% overhead
  };
  EXPECT_EQ(place_hook(levels), 1);
}

TEST(Hooks, AllLevelsAffordablePicksInnermost) {
  std::vector<HookLevel> levels{{"outer", kSecond}, {"inner", 100 * kMillisecond}};
  EXPECT_EQ(place_hook(levels), 1);
}

TEST(Hooks, DegenerateNestFallsBackToOutermost) {
  std::vector<HookLevel> levels{{"outer", 100 * sim::kMicrosecond}};
  EXPECT_EQ(place_hook(levels), 0);
}

TEST(Hooks, CustomFractionChangesChoice) {
  std::vector<HookLevel> levels{
      {"outer", kSecond},
      {"inner", kMillisecond},
  };
  EXPECT_EQ(place_hook(levels, 20 * sim::kMicrosecond, 0.01), 0);
  EXPECT_EQ(place_hook(levels, 20 * sim::kMicrosecond, 0.05), 1);
}

TEST(Analysis, VaryingBoundsDetected) {
  LoopNestSpec spec;
  spec.name = "tri";
  spec.distributed_extent = 10;
  spec.outer_iters = 5;
  spec.bounds = [](int k) { return data::SliceRange{k, 10}; };
  EXPECT_TRUE(analyze(spec).varying_loop_bounds);
}

TEST(Analysis, StaticBoundsNotFlagged) {
  LoopNestSpec spec;
  spec.name = "flat";
  spec.distributed_extent = 10;
  spec.outer_iters = 5;
  spec.bounds = [](int) { return data::SliceRange{0, 10}; };
  EXPECT_FALSE(analyze(spec).varying_loop_bounds);
}

TEST(Analysis, SingleInvocationNotRepeated) {
  LoopNestSpec spec;
  spec.distributed_extent = 10;
  spec.outer_iters = 1;
  EXPECT_FALSE(analyze(spec).repeated_execution);
}

}  // namespace
}  // namespace nowlb::loop
