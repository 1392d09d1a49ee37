// Experiment harness tests: the paper's metrics computed correctly.
#include <gtest/gtest.h>

#include "exp/harness.hpp"
#include "load/generators.hpp"

namespace nowlb::exp {
namespace {

apps::MmConfig small_mm() {
  apps::MmConfig mm;
  mm.n = 80;
  mm.mac_cost = 20 * sim::kMicrosecond;  // seq ~10.2 s
  return mm;
}

ExperimentConfig small_cfg(int slaves) {
  ExperimentConfig cfg;
  cfg.slaves = slaves;
  cfg.world = paper_world();
  cfg.lb = paper_lb();
  return cfg;
}

TEST(Harness, DedicatedEfficiencyNearOne) {
  auto m = run_mm(small_mm(), small_cfg(4));
  EXPECT_NEAR(m.speedup, 4.0, 0.4);
  EXPECT_GT(m.efficiency, 0.9);
  EXPECT_LE(m.efficiency, 1.01);
  EXPECT_DOUBLE_EQ(m.competing_cpu_s, 0.0);
}

TEST(Harness, CompetingCpuMeasured) {
  auto cfg = small_cfg(2);
  cfg.loads.push_back({0, [] { return load::constant(); }});
  auto m = run_mm(small_mm(), cfg);
  // The load shares its host with the slave: it gets at least half the
  // CPU while the slave computes there, more once work migrates away.
  EXPECT_GT(m.competing_cpu_s, m.elapsed_s * 0.4);
  EXPECT_LE(m.competing_cpu_s, m.elapsed_s * 1.01);
  // Efficiency accounts for the stolen CPU: it stays well above
  // seq/(P*elapsed).
  EXPECT_GT(m.efficiency, m.seq_s / (2 * m.elapsed_s));
}

// The balancing timeline holds one decision record per round, in order,
// each with every rank's rates, remaining work and target.
TEST(Harness, TraceCapturesRounds) {
  auto cfg = small_cfg(3);
  cfg.want_trace = true;
  Trace trace;
  const auto m = run_mm(small_mm(), cfg, &trace);
  ASSERT_EQ(trace.rounds.size(), static_cast<std::size_t>(m.stats.rounds));
  bool planned = false;
  for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
    const obs::DecisionRecord& r = trace.rounds[i];
    EXPECT_EQ(r.round, i + 1);
    EXPECT_EQ(r.raw_rates.size(), 3u);
    EXPECT_EQ(r.rates.size(), 3u);
    EXPECT_EQ(r.remaining.size(), 3u);
    EXPECT_EQ(r.target.size(), 3u);
    planned = planned || obs::planner_ran(r.gate);
  }
  EXPECT_TRUE(planned);

  // Without want_trace the timeline stays empty.
  Trace none;
  run_mm(small_mm(), small_cfg(3), &none);
  EXPECT_TRUE(none.rounds.empty());
}

TEST(Harness, RepeatAccumulatesStatistics) {
  auto cfg = small_cfg(2);
  auto rep = repeat(3, cfg, [&](const ExperimentConfig& c) {
    return run_mm(small_mm(), c);
  });
  EXPECT_EQ(rep.elapsed_s.count(), 3u);
  EXPECT_GT(rep.speedup.mean(), 1.5);
}

TEST(Harness, StaticRunHasNoMasterStats) {
  auto cfg = small_cfg(3);
  cfg.balance = false;
  auto m = run_mm(small_mm(), cfg);
  EXPECT_EQ(m.stats.rounds, 0);
  EXPECT_GT(m.speedup, 2.5);
}

TEST(Harness, SorAndLuRunnersWork) {
  apps::SorConfig sor;
  sor.n = 100;
  sor.sweeps = 2;
  sor.update_cost = 100 * sim::kMicrosecond;
  auto ms = run_sor(sor, small_cfg(3));
  EXPECT_GT(ms.speedup, 1.2);

  apps::LuConfig lu;
  lu.n = 100;
  lu.update_cost = 50 * sim::kMicrosecond;
  auto ml = run_lu(lu, small_cfg(3));
  EXPECT_GT(ml.speedup, 1.2);
}

}  // namespace
}  // namespace nowlb::exp
