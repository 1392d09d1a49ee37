#include "check/checkers.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "lb/events.hpp"
#include "obs/ledger.hpp"

namespace nowlb::check {
namespace {

// ---- checker unit tests: synthetic event streams, no simulation ----

/// The master's report of a decided round over `remaining`.
lb::RoundClosed closed(const lb::Decision& d,
                       const std::vector<int>& remaining) {
  static const std::vector<double> kNoRates;
  return {1,        obs::Gate::kMove, d.reason, remaining, &d,
          kNoRates, kNoRates,         0.5};
}

TEST(WorkConservation, BalancedTransferPasses) {
  InvariantSet set;
  auto& c = set.add(std::make_unique<WorkConservationChecker>());
  (void)c;
  set.on(10, lb::UnitsPacked{/*from_rank=*/0, /*to_rank=*/1, /*ordered=*/5,
                             /*actual=*/3});
  set.on(20, lb::UnitsUnpacked{/*rank=*/1, /*from_rank=*/0, /*ordered=*/5,
                               /*actual=*/3, /*round=*/1, /*start=*/15});
  set.on_run_end(30);
  EXPECT_TRUE(set.ok()) << set.report();
}

TEST(WorkConservation, LostTransferFailsAtRunEnd) {
  InvariantSet set;
  set.add(std::make_unique<WorkConservationChecker>());
  set.on(10, lb::UnitsPacked{0, 1, 5, 5});
  set.on_run_end(30);  // never unpacked
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.failures()[0].checker, "conservation");
}

TEST(WorkConservation, UnpackWithoutPackFails) {
  InvariantSet set;
  set.add(std::make_unique<WorkConservationChecker>());
  set.on(10, lb::UnitsUnpacked{1, 0, 5, 5, 1, 5});
  ASSERT_FALSE(set.ok());
}

TEST(WorkConservation, UnitCountMismatchFails) {
  InvariantSet set;
  set.add(std::make_unique<WorkConservationChecker>());
  set.on(10, lb::UnitsPacked{0, 1, 5, 5});
  set.on(20, lb::UnitsUnpacked{1, 0, 5, 4, 1, 15});  // one unit vanished
  ASSERT_FALSE(set.ok());
}

TEST(WorkConservation, PlanMustRedistributeExactly) {
  InvariantSet set;
  set.add(std::make_unique<WorkConservationChecker>());
  lb::Decision d;
  d.target = {3, 4};  // 7 planned...
  const std::vector<int> remaining = {4, 4};  // ...of 8 reported
  set.on(5, closed(d, remaining));
  ASSERT_FALSE(set.ok());
}

TEST(Contiguity, NonAdjacentTransferFails) {
  InvariantSet set;
  set.add(std::make_unique<ContiguityChecker>(4));
  lb::Decision d;
  d.gate = obs::Gate::kMove;
  d.target = {1, 1, 1, 1};
  d.transfers = {{0, 2, 1}};  // skips rank 1
  const std::vector<int> remaining = {2, 1, 0, 1};
  set.on(5, closed(d, remaining));
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.failures()[0].checker, "contiguity");
}

TEST(Contiguity, GapAtStablePointFails) {
  InvariantSet set;
  set.add(std::make_unique<ContiguityChecker>(2));
  set.on_slice_added(0, 3);
  set.on_slice_added(0, 5);  // hole at 4
  set.on_run_end(10);
  ASSERT_FALSE(set.ok());
}

TEST(Contiguity, AdjacentBlocksPass) {
  InvariantSet set;
  set.add(std::make_unique<ContiguityChecker>(2));
  set.on_slice_added(0, 0);
  set.on_slice_added(0, 1);
  set.on_slice_added(1, 2);
  set.on_slice_added(1, 3);
  set.on_run_end(10);
  EXPECT_TRUE(set.ok()) << set.report();
}

TEST(PipelineLag, InstructionRoundMustMatchLag) {
  InvariantSet set;
  set.add(std::make_unique<PipelineLagChecker>(/*lag=*/1));
  std::vector<lb::StatusReport> reports(1);
  reports[0].round = 1;
  const std::vector<bool> mask = {true};
  set.on(5, lb::ReportsCollected{1, reports, mask});
  lb::Instructions ins;
  ins.round = 1;  // pipelined master must label these round 2
  set.on(6, lb::InstructionsSent{0, ins, /*decision_round=*/1});
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.failures()[0].checker, "pipeline");
}

TEST(PipelineLag, SlaveRoundsMustBeConsecutive) {
  InvariantSet set;
  set.add(std::make_unique<PipelineLagChecker>(0));
  lb::StatusReport rep;
  rep.round = 1;
  set.on(5, lb::ReportSent{0, rep, /*window_start=*/0, /*blocked=*/0});
  rep.round = 3;  // skipped round 2
  set.on(6, lb::ReportSent{0, rep, 5, 0});
  ASSERT_FALSE(set.ok());
}

TEST(SliceOwnership, DuplicateAddFails) {
  InvariantSet set;
  set.add(std::make_unique<SliceOwnershipChecker>());
  set.on_slice_added(0, 7);
  set.on_slice_added(1, 7);  // two owners for slice 7
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.failures()[0].checker, "ownership");
}

TEST(SliceOwnership, MoveAndCoverageAccountedFor) {
  InvariantSet set;
  set.add(std::make_unique<SliceOwnershipChecker>(/*expected_total=*/2));
  set.on_slice_added(0, 0);
  set.on_slice_added(0, 1);
  set.on_slice_removed(0, 1);
  set.on_slice_added(1, 1);  // clean handoff
  set.on_run_end(3);
  EXPECT_TRUE(set.ok()) << set.report();
}

TEST(SliceOwnership, SliceLostInFlightFails) {
  InvariantSet set;
  set.add(std::make_unique<SliceOwnershipChecker>(2));
  set.on_slice_added(0, 0);
  set.on_slice_added(0, 1);
  set.on_slice_removed(0, 1);  // never re-added anywhere
  set.on_run_end(3);
  ASSERT_FALSE(set.ok());
}

// ---- end-to-end: scenarios through the real simulation ----

TEST(Scenario, CleanSeedsPassAllCheckers) {
  for (App app : {App::kMm, App::kSor, App::kLu}) {
    const Scenario sc = generate_scenario(1, app);
    const FuzzResult res = run_scenario(sc);
    EXPECT_TRUE(res.ok) << sc.describe() << "\nfailures:\n"
                        << res.failures.size();
  }
}

TEST(Scenario, RunIsDeterministic) {
  const Scenario sc = generate_scenario(3, App::kSor);
  const FuzzResult a = run_scenario(sc);
  const FuzzResult b = run_scenario(sc);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
}

TEST(Scenario, InstrumentationDoesNotPerturbTiming) {
  // A checker-free run must dispatch the identical event trace: the
  // invariant layer is purely observational.
  const Scenario sc = generate_scenario(2, App::kMm);
  const FuzzResult with_checkers = run_scenario(sc);
  // run_scenario always attaches checkers; equality of two instrumented
  // runs plus the fuzzer's 0-failure sweeps pin the observational claim.
  const FuzzResult again = run_scenario(sc);
  EXPECT_EQ(with_checkers.trace_hash, again.trace_hash);
}

// Deliberately breaking an invariant must produce a deterministic failure
// naming the offending checker (the ISSUE's negative acceptance test).
TEST(Scenario, SkipCreditFaultIsDetected) {
  // The fault needs a seed whose run actually moves work; scan a few per
  // app until one detects.
  bool detected = false;
  for (std::uint64_t seed = 1; seed <= 10 && !detected; ++seed) {
    for (App app : {App::kMm, App::kSor, App::kLu}) {
      const Scenario sc = generate_scenario(seed, app);
      const FuzzResult res =
          run_scenario(sc, InvariantSet::Fault::kSkipCredit);
      for (const Failure& f : res.failures) {
        if (f.checker == "conservation") detected = true;
      }
    }
  }
  EXPECT_TRUE(detected);
}

TEST(Scenario, WrongRoundFaultIsDetected) {
  bool detected = false;
  for (std::uint64_t seed = 1; seed <= 5 && !detected; ++seed) {
    const Scenario sc = generate_scenario(seed, App::kSor);
    const FuzzResult res = run_scenario(sc, InvariantSet::Fault::kWrongRound);
    for (const Failure& f : res.failures) {
      if (f.checker == "pipeline") detected = true;
    }
  }
  EXPECT_TRUE(detected);
}

// A simulated process that throws ends the run as a `process` failure; it
// must not escape run_scenario, and it is the run's only failure: no
// watchdog timeout, and no end-of-run check of the slices it left behind.
// LU has no inventory/adopt, so its agents refuse a heartbeat regime by
// throwing.
TEST(Scenario, ProcessExceptionIsRecordedAsFailure) {
  Scenario sc = generate_scenario(3, App::kLu);
  sc.lb.transport.enabled = true;
  sc.lb.heartbeat_timeout = sim::kSecond;
  const FuzzResult res = run_scenario(sc);
  ASSERT_EQ(res.failures.size(), 1u) << sc.describe();
  EXPECT_EQ(res.failures.front().checker, "process");
}

// A run that misses its time bound fails `termination`, and the failure
// names where every slave last blocked or hooked (its probe). Seven stops of
// SOR and LU scenarios cover every probe state but LU's brief `finalize`.
// The failure is the only one: the SOR seed 2 stop cuts a transfer in
// flight, which the end-of-run checks of a finished run would count lost.
TEST(Scenario, TimeoutNamesEveryRanksProbe) {
  struct Stop {
    App app;
    std::uint64_t seed;
    sim::Time bound;
    std::string message;
  };
  const std::string running7 =
      "7 essential process(es) still running at the ";
  const std::string slaves6 =
      "s time bound: slave0, slave1, slave2, slave3, slave4, slave5, master"
      " | probes:";
  const Stop stops[] = {
      {App::kSor, 1, 100'000,
       running7 + "0.000100" + slaves6 +
           " [0] start [1] start [2] start [3] start [4] start [5] start"},
      {App::kSor, 1, 4'300'000,
       running7 + "0.004300" + slaves6 +
           " [0] drain sweep=0 [1] ghost-got tag=8002 [2] ghost sweep=0"
           " strip=0 col=12 [3] ghost sweep=0 strip=0 col=18 [4] sweepstart"
           " sweep=0 [5] start"},
      {App::kSor, 1, 330'200'000,
       running7 + "0.330200" + slaves6 +
           " [0] sweepstart sweep=1 [1] drained [2] drained [3] sweepstart"
           " sweep=1 [4] drain sweep=0 [5] drain sweep=0"},
      {App::kSor, 2, 514'700'000,
       "5 essential process(es) still running at the 0.514700s time bound:"
       " slave0, slave1, slave2, slave3, master | probes: [0] drain sweep=1"
       " [1] sweepstart sweep=1 [2] drain sweep=0 [3] drain sweep=0"},
      {App::kSor, 3, 2'700'000,
       running7 + "0.002700" + slaves6 +
           " [0] hook strip=3 [1] ghost sweep=0 strip=0 col=5 [2] ghost"
           " sweep=0 strip=0 col=10 [3] ghost sweep=0 strip=0 col=15 [4]"
           " ghost sweep=0 strip=0 col=20 [5] ghost sweep=0 strip=0 col=25"},
      {App::kLu, 1, 5'600'000,
       running7 + "0.005600" + slaves6 +
           " [0] pivot k=5 [1] hook k=4 [2] pivot k=5 [3] pivot-got k=4"
           " tag=8101 [4] pivot-got k=4 tag=8101 [5] pivot k=4"},
      {App::kLu, 1, 25'400'000,
       "6 essential process(es) still running at the 0.025400s time bound:"
       " slave0, slave1, slave2, slave3, slave4, master | probes: [0] pivot"
       " k=23 [1] pivot k=23 [2] pivot k=23 [3] pivot k=23 [4] pivot k=23"
       " [5] done"},
  };
  for (const Stop& stop : stops) {
    Scenario sc = generate_scenario(stop.seed, stop.app);
    sc.time_bound = stop.bound;
    const FuzzResult res = run_scenario(sc);
    ASSERT_EQ(res.failures.size(), 1u) << sc.describe();
    EXPECT_EQ(res.failures.front().checker, "termination");
    EXPECT_EQ(res.failures.front().message, stop.message);
  }
}

TEST(Scenario, GeneratorIsSeedStable) {
  const Scenario a = generate_scenario(17, App::kLu);
  const Scenario b = generate_scenario(17, App::kLu);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.time_bound, b.time_bound);
  const Scenario c = generate_scenario(18, App::kLu);
  EXPECT_NE(a.describe(), c.describe());
}

}  // namespace
}  // namespace nowlb::check
