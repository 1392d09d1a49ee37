// MM application tests: correctness against sequential execution under
// load balancing (including forced work movement), conservation, timing.
#include "apps/mm.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "sim/world.hpp"

namespace nowlb::apps {
namespace {

using sim::kMillisecond;
using sim::kSecond;

sim::WorldConfig test_world_config() {
  sim::WorldConfig wc;
  wc.host.quantum = 10 * kMillisecond;
  return wc;
}

lb::LbConfig test_lb() {
  lb::LbConfig cfg;
  cfg.min_period = 250 * kMillisecond;
  return cfg;
}

struct MmOutcome {
  double makespan_s;
  lb::MasterStats stats;
  std::shared_ptr<MmShared> shared;
};

MmOutcome run_mm(const MmConfig& cfg, int slaves,
                 const std::vector<int>& loaded = {}) {
  sim::World w(test_world_config());
  auto shared = std::make_shared<MmShared>();
  mm_make_inputs(cfg, *shared);
  lb::Cluster cluster(w, mm_cluster_config(cfg, slaves, test_lb()));
  mm_build(cluster, cfg, shared);
  for (int rank : loaded) {
    cluster.add_load(rank, [](sim::Context& ctx) -> sim::Task<> {
      for (;;) co_await ctx.compute(kSecond);
    });
  }
  w.run();
  return {sim::to_seconds(w.now()), cluster.stats(), shared};
}

TEST(Mm, SpecMatchesTable1) {
  MmConfig cfg;
  cfg.repeats = 3;
  const auto props = loop::analyze(mm_spec(cfg));
  EXPECT_FALSE(props.loop_carried_dependences);
  EXPECT_FALSE(props.communication_outside_loop);
  EXPECT_TRUE(props.repeated_execution);
  EXPECT_FALSE(props.varying_loop_bounds);
  EXPECT_FALSE(props.index_dependent_iteration_size);
  EXPECT_FALSE(props.data_dependent_iteration_size);
}

TEST(Mm, SequentialTimeMatchesPaperScale) {
  MmConfig cfg;  // 500x500, 2us per MAC
  EXPECT_NEAR(mm_seq_time_s(cfg), 250.0, 1.0);
}

TEST(Mm, ResultMatchesSequentialDedicated) {
  MmConfig cfg;
  cfg.n = 24;
  cfg.real_compute = true;
  cfg.mac_cost = 200 * sim::kMicrosecond;  // big units so rounds happen
  auto out = run_mm(cfg, 3);
  const auto expect = mm_sequential(cfg, *out.shared);
  EXPECT_EQ(out.shared->c, expect);  // bit-for-bit
  for (int count : out.shared->compute_count_per_column)
    EXPECT_EQ(count, 1);
}

TEST(Mm, ResultMatchesSequentialUnderLoadWithMovement) {
  MmConfig cfg;
  cfg.n = 30;
  cfg.real_compute = true;
  cfg.mac_cost = 200 * sim::kMicrosecond;
  auto out = run_mm(cfg, 3, /*loaded=*/{0});
  const auto expect = mm_sequential(cfg, *out.shared);
  EXPECT_EQ(out.shared->c, expect);
  // Load balancing actually moved columns.
  EXPECT_GT(out.stats.units_moved, 0);
  // Every column computed exactly once.
  for (int count : out.shared->compute_count_per_column)
    EXPECT_EQ(count, 1);
}

TEST(Mm, RepeatsComputeEveryColumnEachPhase) {
  MmConfig cfg;
  cfg.n = 20;
  cfg.repeats = 3;
  cfg.real_compute = true;
  cfg.mac_cost = 200 * sim::kMicrosecond;
  auto out = run_mm(cfg, 2, /*loaded=*/{1});
  for (int count : out.shared->compute_count_per_column)
    EXPECT_EQ(count, cfg.repeats);
  const auto expect = mm_sequential(cfg, *out.shared);
  EXPECT_EQ(out.shared->c, expect);
}

TEST(Mm, SpeedupNearLinearDedicated) {
  MmConfig cfg;
  cfg.n = 120;
  cfg.mac_cost = 20 * sim::kMicrosecond;  // column = 288 ms
  const double seq = mm_seq_time_s(cfg);
  auto out4 = run_mm(cfg, 4);
  const double speedup = seq / out4.makespan_s;
  EXPECT_GT(speedup, 3.4);
  EXPECT_LE(speedup, 4.05);
}

TEST(Mm, LoadBalancingRecoversEfficiencyUnderLoad) {
  MmConfig cfg;
  cfg.n = 120;
  cfg.mac_cost = 20 * sim::kMicrosecond;
  auto loaded = run_mm(cfg, 4, /*loaded=*/{0});
  // Static distribution would take ~2x the dedicated time (the loaded
  // slave halves); DLB should stay well under that.
  auto dedicated = run_mm(cfg, 4);
  EXPECT_LT(loaded.makespan_s, dedicated.makespan_s * 1.45);
  // And the loaded slave computed materially less.
  EXPECT_LT(loaded.shared->columns_computed[0],
            loaded.shared->columns_computed[1]);
}

TEST(Mm, SingleSlaveMatchesSequentialTime) {
  MmConfig cfg;
  cfg.n = 60;
  cfg.mac_cost = 50 * sim::kMicrosecond;
  auto out = run_mm(cfg, 1);
  // One slave: no parallelism; makespan ~= sequential time + LB overhead.
  EXPECT_NEAR(out.makespan_s, mm_seq_time_s(cfg),
              0.05 * mm_seq_time_s(cfg) + 0.5);
}

}  // namespace
}  // namespace nowlb::apps
