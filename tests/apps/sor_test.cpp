// SOR application tests: bit-for-bit equivalence with sequential execution
// under pipelined execution, strip mining, and mid-sweep work movement with
// catch-up / set-aside reconciliation.
#include "apps/sor.hpp"

#include <gtest/gtest.h>

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

struct SorOutcome {
  double makespan_s;
  lb::MasterStats stats;
  std::shared_ptr<SorShared> shared;
};

SorOutcome run_sor(const SorConfig& cfg, int slaves,
                   const std::vector<int>& loaded = {},
                   lb::LbConfig lbc = test_lb()) {
  sim::World w(test_world_config());
  auto shared = std::make_shared<SorShared>();
  sor_make_inputs(cfg, *shared);
  lb::Cluster cluster(w, sor_cluster_config(cfg, slaves, lbc));
  sor_build(cluster, cfg, shared);
  for (int rank : loaded) {
    cluster.add_load(rank, [](sim::Context& ctx) -> sim::Task<> {
      for (;;) co_await ctx.compute(kSecond);
    });
  }
  w.run();
  return {sim::to_seconds(w.now()), cluster.stats(), shared};
}

std::vector<std::vector<double>> reference(const SorConfig& cfg) {
  SorShared tmp;
  sor_make_inputs(cfg, tmp);
  sor_sequential(cfg, tmp.grid);
  return tmp.grid;
}

TEST(Sor, SpecMatchesTable1) {
  SorConfig cfg;
  const auto props = loop::analyze(sor_spec(cfg));
  EXPECT_TRUE(props.loop_carried_dependences);
  EXPECT_TRUE(props.communication_outside_loop);
  EXPECT_TRUE(props.repeated_execution);
  EXPECT_FALSE(props.varying_loop_bounds);
  EXPECT_FALSE(props.index_dependent_iteration_size);
  EXPECT_FALSE(props.data_dependent_iteration_size);
}

TEST(Sor, SequentialTimeMatchesPaperScale) {
  SorConfig cfg;  // 2000x2000 x 20 sweeps
  EXPECT_NEAR(sor_seq_time_s(cfg), 350.0, 5.0);
}

TEST(Sor, MatchesSequentialDedicated) {
  SorConfig cfg;
  cfg.n = 34;       // 32 interior columns
  cfg.sweeps = 4;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;  // sizeable strips
  auto out = run_sor(cfg, 3);
  EXPECT_EQ(out.shared->grid, reference(cfg));
}

TEST(Sor, MatchesSequentialSingleSlave) {
  SorConfig cfg;
  cfg.n = 20;
  cfg.sweeps = 3;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 1);
  EXPECT_EQ(out.shared->grid, reference(cfg));
}

TEST(Sor, MatchesSequentialUnderLoadWithMovement) {
  SorConfig cfg;
  cfg.n = 42;
  cfg.sweeps = 6;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 4, /*loaded=*/{1});
  EXPECT_EQ(out.shared->grid, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0)
      << "expected the load balancer to move columns";
}

TEST(Sor, MatchesSequentialWithAggressiveMovement) {
  // Very low threshold and short period force frequent movement, stressing
  // catch-up, set-aside, and ghost retro-sends.
  SorConfig cfg;
  cfg.n = 38;
  cfg.sweeps = 6;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  lb::LbConfig lbc = test_lb();
  lbc.min_period = 60 * kMillisecond;
  lbc.improvement_threshold = 0.02;
  lbc.profitability_check = false;
  auto out = run_sor(cfg, 3, /*loaded=*/{0, 2}, lbc);
  EXPECT_EQ(out.shared->grid, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0);
}

TEST(Sor, BlockDistributionStaysContiguous) {
  SorConfig cfg;
  cfg.n = 42;
  cfg.sweeps = 5;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 4, /*loaded=*/{3});
  EXPECT_EQ(out.shared->grid, reference(cfg));
  // Final ownership must be a block partition: ranks non-decreasing across
  // interior columns (restricted movement preserves contiguity).
  const auto& owner = out.shared->final_owner;
  for (int j = 2; j < cfg.n - 1; ++j) {
    EXPECT_GE(owner[j], owner[j - 1])
        << "ownership not contiguous at column " << j;
  }
}

TEST(Sor, AutoGrainSizePicksReasonableBlock) {
  SorConfig cfg;
  cfg.n = 200;
  cfg.sweeps = 1;
  cfg.update_cost = 50 * sim::kMicrosecond;
  // per row (66 cols): 3.3 ms; target 15 ms -> ~4-5 rows per strip.
  auto out = run_sor(cfg, 3);
  EXPECT_GE(out.shared->block_rows_used, 3);
  EXPECT_LE(out.shared->block_rows_used, 6);
}

TEST(Sor, LoadBalancingHelpsUnderLoad) {
  // Scaled so per-strip work stays well above the scheduling quantum even
  // after the loaded rank sheds columns (the paper's grain-size rule);
  // below that scale, quantum-queueing noise drowns the rate signal.
  SorConfig cfg;
  cfg.n = 150;
  cfg.sweeps = 6;
  cfg.update_cost = sim::kMillisecond;
  auto with_dlb = run_sor(cfg, 4, /*loaded=*/{0});
  SorConfig static_cfg = cfg;
  static_cfg.use_lb = false;
  auto static_run = run_sor(static_cfg, 4, /*loaded=*/{0});
  // Dynamic balancing must clearly beat the static distribution when one
  // workstation is shared (Fig. 8's shape).
  EXPECT_LT(with_dlb.makespan_s, static_run.makespan_s * 0.90);
  EXPECT_GT(with_dlb.stats.units_moved, 0);
}

}  // namespace
}  // namespace nowlb::apps
