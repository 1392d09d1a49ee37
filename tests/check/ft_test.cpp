// End-to-end fault-tolerance tests through the scenario harness: message
// loss survived by the transport, a mid-run crash survived by eviction +
// orphan recovery, and the bit-identical guarantee when faults are off.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "check/scenario.hpp"

namespace nowlb::check {
namespace {

FaultPlan lossy_plan() {
  FaultPlan p;
  p.drop_rate = 0.05;
  p.dup_rate = 0.02;
  p.reorder_delay = 500 * sim::kMicrosecond;
  return p;
}

TEST(FaultTolerance, FaultsOffLeavesTheTraceBitIdentical) {
  // apply_fault_plan with an empty plan must not perturb anything; the
  // scenario itself must also replay identically run over run.
  Scenario plain = generate_scenario(3, App::kMm);
  Scenario planned = generate_scenario(3, App::kMm);
  apply_fault_plan(planned, FaultPlan{});
  const FuzzResult a = run_scenario(plain);
  const FuzzResult b = run_scenario(planned);
  EXPECT_TRUE(a.ok) << plain.describe();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
}

TEST(FaultTolerance, LossySweepCompletesCorrectly) {
  // Seed 11 for every app, and the LU seeds whose delayed transfer once
  // delivered column n-1 after the receiver's last update, so it was
  // never brought up to date.
  const std::pair<std::uint64_t, App> inputs[] = {
      {11, App::kMm},   {11, App::kSor},  {11, App::kLu},
      {7039, App::kLu}, {9811, App::kLu}, {47649, App::kLu}};
  for (const auto& [seed, app] : inputs) {
    Scenario sc = generate_scenario(seed, app);
    apply_fault_plan(sc, lossy_plan());
    const FuzzResult res = run_scenario(sc);
    EXPECT_TRUE(res.ok) << sc.describe() << "\n"
                        << (res.failures.empty()
                                ? ""
                                : res.failures.front().message);
  }
}

TEST(FaultTolerance, CrashIsDetectedAndRecovered) {
  FaultPlan plan = lossy_plan();
  plan.kill_rank = 1;
  plan.kill_round = 3;
  Scenario sc = generate_scenario(7, App::kMm);
  apply_fault_plan(sc, plan);
  ASSERT_GE(sc.slaves, 2);  // the plan guarantees a survivor
  const FuzzResult res = run_scenario(sc);
  EXPECT_TRUE(res.ok) << sc.describe() << "\n"
                      << (res.failures.empty() ? ""
                                               : res.failures.front().message);
}

TEST(FaultTolerance, CrashRunsAreDeterministic) {
  FaultPlan plan = lossy_plan();
  plan.kill_rank = 0;
  plan.kill_round = 2;
  auto run_once = [&] {
    Scenario sc = generate_scenario(5, App::kMm);
    apply_fault_plan(sc, plan);
    return run_scenario(sc);
  };
  const FuzzResult a = run_once();
  const FuzzResult b = run_once();
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(FaultTolerance, KillPlanIsDroppedForAppsWithoutRecovery) {
  // SOR's ghost chain has no crash-recovery path: the kill is dropped but
  // the message-level faults stay armed.
  FaultPlan plan = lossy_plan();
  plan.kill_rank = 1;
  Scenario sc = generate_scenario(9, App::kSor);
  apply_fault_plan(sc, plan);
  EXPECT_LT(sc.faults.kill_rank, 0);
  EXPECT_GT(sc.world.net.drop_prob, 0.0);
  EXPECT_TRUE(sc.lb.transport.enabled);
}

}  // namespace
}  // namespace nowlb::check
