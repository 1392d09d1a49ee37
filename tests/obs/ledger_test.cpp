// Decision ledger: one record per balancing round, explanation rendering,
// and the LedgerChecker cross-check (including its failure path on a
// ledger whose arithmetic does not add up).
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include "check/checkers.hpp"
#include "check/invariant.hpp"
#include "exp/registry.hpp"
#include "lb/events.hpp"
#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace nowlb {
namespace {

TEST(Gate, NamesAreStable) {
  EXPECT_STREQ(obs::gate_name(obs::Gate::kMove), "move");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kBelowThreshold), "below-threshold");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kNotProfitable), "not-profitable");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kHold), "hold");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kRecoveryFreeze), "recovery-freeze");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kPhaseEnd), "phase-end");
  EXPECT_STREQ(obs::gate_name(obs::Gate::kFinalReports), "final-reports");
}

obs::DecisionRecord moved_record() {
  obs::DecisionRecord rec;
  rec.round = 3;
  rec.t = sim::from_seconds(1.5);
  rec.gate = obs::Gate::kMove;
  rec.reason = "rebalance";
  rec.raw_rates = {10.0, 30.0};
  rec.rates = {12.0, 28.0};
  rec.remaining = {30, 10};
  rec.target = {12, 28};
  rec.moves = {{0, 1, 18}};
  rec.improvement = 0.4;
  rec.projected_current_s = 3.0;
  rec.projected_new_s = 1.8;
  rec.est_move_cost_s = 0.1;
  rec.period_s = 0.5;
  return rec;
}

/// A completed report collection with no reports, as the master reports
/// it to the invariant set.
lb::ReportsCollected collection() {
  static const std::vector<lb::StatusReport> kNoReports;
  static const std::vector<bool> kNoMask;
  return {1, kNoReports, kNoMask};
}

TEST(DecisionLedger, ExplainLineShowsGateRatesAndMoves) {
  const std::string line = obs::DecisionLedger::explain_line(moved_record());
  EXPECT_NE(line.find("round 3"), std::string::npos);
  EXPECT_NE(line.find("gate=move"), std::string::npos);
  EXPECT_NE(line.find("rebalance"), std::string::npos);
  EXPECT_NE(line.find("raw=[10 30]"), std::string::npos);
  EXPECT_NE(line.find("filtered=[12 28]"), std::string::npos);
  EXPECT_NE(line.find("0->1 x18"), std::string::npos);
}

TEST(DecisionLedger, ExplainCoversEveryRecord) {
  obs::DecisionLedger ledger;
  ledger.append(moved_record());
  obs::DecisionRecord held = moved_record();
  held.round = 4;
  held.gate = obs::Gate::kPhaseEnd;
  held.reason = "no work remaining";
  held.moves.clear();
  held.target = held.remaining;
  ledger.append(held);
  const std::string text = ledger.explain();
  EXPECT_NE(text.find("round 3"), std::string::npos);
  EXPECT_NE(text.find("round 4"), std::string::npos);
  EXPECT_NE(text.find("gate=phase-end"), std::string::npos);
}

// Every balancing round of a real run produces exactly one record — the
// explain contract: nothing the master decided is missing.
TEST(DecisionLedger, OneRecordPerRoundInHarnessRuns) {
  for (const bool pipelined : {false, true}) {
    obs::Observability hub;
    const exp::Workload mm{apps::App::kMm, 64};
    exp::ExperimentConfig cfg = exp::config(mm, 4);
    cfg.lb.pipelined = pipelined;
    cfg.obs = &hub;
    const exp::Measurement m = exp::run(mm, cfg);
    EXPECT_EQ(hub.ledger.records().size(),
              static_cast<std::size_t>(m.stats.rounds))
        << "pipelined=" << pipelined;
    std::uint64_t round = 0;
    for (const obs::DecisionRecord& rec : hub.ledger.records()) {
      EXPECT_EQ(rec.round, ++round);
    }
  }
}

TEST(LedgerChecker, AcceptsConsistentLedger) {
  obs::DecisionLedger ledger;
  check::InvariantSet set;
  set.add(std::make_unique<check::LedgerChecker>(&ledger));
  ledger.append(moved_record());
  set.on(0, collection());
  set.on_run_end(sim::from_seconds(2.0));
  EXPECT_TRUE(set.ok()) << set.report();
}

TEST(LedgerChecker, FlagsMovesThatDoNotAddUp) {
  obs::DecisionLedger ledger;
  check::InvariantSet set;
  set.add(std::make_unique<check::LedgerChecker>(&ledger));
  obs::DecisionRecord bad = moved_record();
  bad.moves = {{0, 1, 5}};  // target - remaining is +/-18, not 5
  ledger.append(bad);
  set.on(0, collection());
  set.on_run_end(sim::from_seconds(2.0));
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.failures()[0].message.find("ordered flow"),
            std::string::npos);
}

TEST(LedgerChecker, FlagsCancelledRoundsThatOrderMoves) {
  obs::DecisionLedger ledger;
  check::InvariantSet set;
  set.add(std::make_unique<check::LedgerChecker>(&ledger));
  obs::DecisionRecord bad = moved_record();
  bad.gate = obs::Gate::kBelowThreshold;  // cancelled, but moves remain
  ledger.append(bad);
  set.on(0, collection());
  set.on_run_end(sim::from_seconds(2.0));
  ASSERT_FALSE(set.ok());
}

TEST(LedgerChecker, FlagsMissingRecords) {
  obs::DecisionLedger ledger;
  check::InvariantSet set;
  set.add(std::make_unique<check::LedgerChecker>(&ledger));
  set.on(0, collection());  // a collection with no record
  set.on_run_end(sim::from_seconds(1.0));
  ASSERT_FALSE(set.ok());
  EXPECT_NE(set.failures()[0].message.find("report collection"),
            std::string::npos);
}

TEST(LedgerChecker, SkipsRecordsFromEarlierRuns) {
  obs::DecisionLedger ledger;
  ledger.append(moved_record());  // pre-existing (shared hub)
  check::InvariantSet set;
  set.add(std::make_unique<check::LedgerChecker>(&ledger));
  ledger.append(moved_record());
  set.on(0, collection());
  set.on_run_end(sim::from_seconds(2.0));
  EXPECT_TRUE(set.ok()) << set.report();
}

}  // namespace
}  // namespace nowlb
