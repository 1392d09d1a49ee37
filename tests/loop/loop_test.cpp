// Compiler-layer tests: grain-size control, hook placement, spec analysis,
// generated work movement.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "loop/grain.hpp"
#include "loop/hooks.hpp"
#include "loop/movement.hpp"
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

template <typename T>
Task<> store(Task<T> task, std::optional<T>& out) {
  out = co_await std::move(task);
}

// Runs `task`, which must not suspend, and returns its value.
template <typename T>
T run(Task<T> task) {
  std::optional<T> out;
  Task<> root = store(std::move(task), out);
  root.start();
  root.rethrow_if_error();
  return std::move(out.value());
}

TEST(Movement, ArrayOpsMoveTheHighestActiveSlices) {
  using data::SliceId;
  // Active while the marker is below 3; ids 5 and 7 are inactive.
  const auto active = [](SliceId, int marker) { return marker < 3; };
  const std::vector<int> markers = {0, 1, 2, 0, 1, 4, 2, 3};
  data::DistArray<double> donor(2);
  data::DistArray<double> peer(2);
  for (SliceId id = 0; id < 8; ++id) {
    donor.add(id, {id + 0.5, -1.0}, markers[static_cast<std::size_t>(id)]);
  }
  peer.add(9, {9.5, -1.0});
  lb::SlaveAgent::WorkOps ops = array_ops(donor, active);
  lb::SlaveAgent::WorkOps peer_ops = array_ops(peer, active);
  EXPECT_EQ(ops.remaining(), 6);
  EXPECT_EQ(peer_ops.remaining(), 1);

  auto [payload, moved] = run(ops.pack(3, 1));
  EXPECT_EQ(moved, 3);
  EXPECT_EQ(donor.owned_ids(), (std::vector<SliceId>{0, 1, 2, 5, 7}));
  EXPECT_EQ(ops.remaining(), 3);
  EXPECT_EQ(run(peer_ops.unpack(std::move(payload), 0)), 3);
  EXPECT_EQ(peer.owned_ids(), (std::vector<SliceId>{3, 4, 6, 9}));
  for (const SliceId id : {3, 4, 6}) {
    EXPECT_EQ(peer.marker(id), markers[static_cast<std::size_t>(id)]);
    EXPECT_EQ(peer.slice(id), (std::vector<double>{id + 0.5, -1.0}));
  }
  EXPECT_EQ(peer_ops.remaining(), 4);

  // Asked for more than it has, the donor hands off only its active
  // slices: the inactive ones stay put.
  auto [rest, rest_moved] = run(ops.pack(10, 1));
  EXPECT_EQ(rest_moved, 3);
  EXPECT_EQ(ops.remaining(), 0);
  EXPECT_EQ(run(peer_ops.unpack(std::move(rest), 0)), 3);
  EXPECT_EQ(ops.inventory(), (std::vector<std::int32_t>{5, 7}));
  EXPECT_EQ(peer_ops.inventory(),
            (std::vector<std::int32_t>{0, 1, 2, 3, 4, 6, 9}));
}

}  // namespace
}  // namespace nowlb::loop
