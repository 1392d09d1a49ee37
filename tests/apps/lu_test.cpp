// LU application tests: correctness with dynamic pivot-owner broadcast,
// active/inactive slices, shrinking work units, done-flag termination.
#include "apps/lu.hpp"

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

struct LuOutcome {
  double makespan_s;
  lb::MasterStats stats;
  std::shared_ptr<LuShared> shared;
};

LuOutcome run_lu(const LuConfig& cfg, int slaves,
                 const std::vector<int>& loaded = {},
                 lb::LbConfig lbc = test_lb()) {
  sim::World w(test_world_config());
  auto shared = std::make_shared<LuShared>();
  lu_make_inputs(cfg, *shared);
  lb::Cluster cluster(w, lu_cluster_config(cfg, slaves, lbc));
  lu_build(cluster, cfg, shared);
  for (int rank : loaded) {
    cluster.add_load(rank, [](sim::Context& ctx) -> sim::Task<> {
      for (;;) co_await ctx.compute(kSecond);
    });
  }
  w.run();
  return {sim::to_seconds(w.now()), cluster.stats(), shared};
}

std::vector<std::vector<double>> reference(const LuConfig& cfg) {
  LuShared tmp;
  lu_make_inputs(cfg, tmp);
  lu_sequential(cfg, tmp.a);
  return tmp.a;
}

TEST(Lu, SpecMatchesTable1) {
  LuConfig cfg;
  const auto props = loop::analyze(lu_spec(cfg));
  EXPECT_FALSE(props.loop_carried_dependences);
  EXPECT_TRUE(props.communication_outside_loop);
  EXPECT_TRUE(props.repeated_execution);
  EXPECT_TRUE(props.varying_loop_bounds);
  EXPECT_TRUE(props.index_dependent_iteration_size);
  EXPECT_FALSE(props.data_dependent_iteration_size);
}

TEST(Lu, MatchesSequentialDedicated) {
  LuConfig cfg;
  cfg.n = 40;
  cfg.real_compute = true;
  cfg.update_cost = 500 * sim::kMicrosecond;
  auto out = run_lu(cfg, 3);
  EXPECT_EQ(out.shared->a, reference(cfg));
}

TEST(Lu, MatchesSequentialSingleSlave) {
  LuConfig cfg;
  cfg.n = 24;
  cfg.real_compute = true;
  cfg.update_cost = 500 * sim::kMicrosecond;
  auto out = run_lu(cfg, 1);
  EXPECT_EQ(out.shared->a, reference(cfg));
}

TEST(Lu, MatchesSequentialUnderLoadWithMovement) {
  LuConfig cfg;
  cfg.n = 48;
  cfg.real_compute = true;
  cfg.update_cost = 500 * sim::kMicrosecond;
  auto out = run_lu(cfg, 4, /*loaded=*/{0});
  EXPECT_EQ(out.shared->a, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0);
}

TEST(Lu, MatchesSequentialWithAggressiveMovement) {
  LuConfig cfg;
  cfg.n = 36;
  cfg.real_compute = true;
  cfg.update_cost = 500 * sim::kMicrosecond;
  lb::LbConfig lbc = test_lb();
  lbc.min_period = 60 * kMillisecond;
  lbc.improvement_threshold = 0.02;
  lbc.profitability_check = false;
  auto out = run_lu(cfg, 3, /*loaded=*/{1}, lbc);
  EXPECT_EQ(out.shared->a, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0);
}

TEST(Lu, EveryColumnHasExactlyOneFinalOwner) {
  LuConfig cfg;
  cfg.n = 30;
  cfg.real_compute = true;
  cfg.update_cost = 500 * sim::kMicrosecond;
  auto out = run_lu(cfg, 3, /*loaded=*/{2});
  for (int owner : out.shared->final_owner) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 3);
  }
}

TEST(Lu, ShrinkingWorkKeepsOverheadBounded) {
  // Cost-only run at a larger size: the run must terminate with the
  // balancing round count far below the number of outer steps, because the
  // frequency controller spaces rounds by work, not by invocation (§4.7).
  LuConfig cfg;
  cfg.n = 200;
  cfg.update_cost = 50 * sim::kMicrosecond;
  auto out = run_lu(cfg, 4);
  EXPECT_LT(out.stats.rounds, cfg.n / 2);
}

}  // namespace
}  // namespace nowlb::apps
