// Causal round DAG tests (DESIGN.md §13): well-formedness of graphs
// reconstructed from clean, lossy and crash-fault runs over seed sweeps,
// migration attribution, the runfile round-trip `nowlb-inspect` relies
// on, and the critical-path walk.
#include "obs/causal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "check/scenario.hpp"
#include "obs/critical_path.hpp"
#include "obs/obs.hpp"
#include "obs/runfile.hpp"
#include "sim/time.hpp"

namespace nowlb {
namespace {

std::string problems_of(const obs::CausalGraph& g) {
  std::ostringstream os;
  for (const std::string& p : g.problems) os << p << "\n";
  return os.str();
}

check::FuzzResult run_with_hub(check::Scenario& sc, obs::Observability& hub) {
  return check::run_scenario(sc, check::InvariantSet::Fault::kNone, &hub);
}

TEST(CausalGraph, CleanRunIsWellFormed) {
  for (const check::App app :
       {check::App::kMm, check::App::kSor, check::App::kLu}) {
    check::Scenario sc = check::generate_scenario(11, app);
    obs::Observability hub;
    const check::FuzzResult res = run_with_hub(sc, hub);
    ASSERT_TRUE(res.ok) << sc.describe();
    const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
    EXPECT_TRUE(g.well_formed()) << app_name(app) << "\n" << problems_of(g);
    EXPECT_EQ(g.nranks, sc.slaves) << app_name(app);
    EXPECT_FALSE(g.rounds.empty()) << app_name(app);
    EXPECT_FALSE(g.spans.empty()) << app_name(app);
    EXPECT_TRUE(g.evicted.empty()) << app_name(app);
    EXPECT_GT(g.total_compute_s(), 0.0);
    EXPECT_GT(g.efficiency(), 0.0);
    EXPECT_LE(g.efficiency(), 1.0 + 1e-9);
    for (const obs::RoundBreakdown& r : g.rounds) {
      EXPECT_GE(r.compute_s, 0.0);
      EXPECT_GE(r.blocked_s, 0.0);
      EXPECT_GE(r.transport_s, 0.0);
      EXPECT_GE(r.decision_s, 0.0);
      EXPECT_GE(r.migration_s, 0.0);
      EXPECT_GE(r.t_end, r.t_begin);
    }
  }
}

// Every migration span carries the round whose instructions ordered it,
// and report/instruction transits join up.
TEST(CausalGraph, RecordedRunAttributesMigrations) {
  check::Scenario sc = check::generate_scenario(9, check::App::kMm);
  obs::Observability hub;
  const check::FuzzResult res = run_with_hub(sc, hub);
  ASSERT_TRUE(res.ok) << sc.describe();
  const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
  EXPECT_TRUE(g.well_formed()) << problems_of(g);
  bool saw_transit = false;
  bool saw_migration = false;
  for (const obs::CausalSpan& s : g.spans) {
    EXPECT_GE(s.dur(), 0);
    if (s.kind == obs::SpanKind::kReportTransit ||
        s.kind == obs::SpanKind::kInstrTransit) {
      saw_transit = true;
    }
    if (s.kind == obs::SpanKind::kMigration) {
      saw_migration = true;
      EXPECT_GT(s.round, 0) << "migration not attributed to a round";
      EXPECT_GE(s.rank, 0);
      EXPECT_GE(s.peer, 0);
    }
  }
  EXPECT_TRUE(saw_transit);
  EXPECT_TRUE(saw_migration);
}

// Recorded runs replay bit-identically, and the recorder stays pure
// observation.
TEST(CausalGraph, RecordedRunsAreDeterministic) {
  auto run_once = [](obs::Observability* hub) {
    const check::Scenario sc = check::generate_scenario(5, check::App::kMm);
    return check::run_scenario(sc, check::InvariantSet::Fault::kNone, hub);
  };
  const check::FuzzResult bare = run_once(nullptr);
  obs::Observability hub_a;
  obs::Observability hub_b;
  const check::FuzzResult a = run_once(&hub_a);
  const check::FuzzResult b = run_once(&hub_b);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_hash, bare.trace_hash);
  EXPECT_EQ(hub_a.trace.events().size(), hub_b.trace.events().size());
}

// A slave killed mid-round must leave a recoverable DAG: the evicted
// rank's subgraph simply terminates, with no events after the eviction.
TEST(CausalGraph, KillSlaveRunStaysWellFormed) {
  check::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.dup_rate = 0.02;
  plan.reorder_delay = 500 * sim::kMicrosecond;
  plan.kill_rank = 1;
  plan.kill_round = 3;
  check::Scenario sc = check::generate_scenario(7, check::App::kMm);
  check::apply_fault_plan(sc, plan);
  ASSERT_GE(sc.slaves, 2);
  obs::Observability hub;
  const check::FuzzResult res = run_with_hub(sc, hub);
  ASSERT_TRUE(res.ok) << sc.describe();
  const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
  EXPECT_TRUE(g.well_formed()) << problems_of(g);
  EXPECT_EQ(g.evicted, std::vector<int>{1});
}

// Every graph of a seed sweep is well-formed: clean runs of each app, the
// same runs under drops, duplicates and reordering, and MM with a slave
// killed at round 3. Among other rules, the two halves of every migration
// name the same ordering round, although each comes from its own rank's
// state and the transfer may be reordered or retransmitted in between.
// Each of the 700 runs is recorded, so run_scenario attaches the
// LedgerChecker too: the ledger arithmetic holds across apps, seeds,
// gates and faults.
TEST(CausalGraph, SeedSweepsAreWellFormed) {
  check::FaultPlan lossy;
  lossy.drop_rate = 0.05;
  lossy.dup_rate = 0.02;
  lossy.reorder_delay = 500 * sim::kMicrosecond;
  check::FaultPlan crash = lossy;
  crash.kill_rank = 1;
  crash.kill_round = 3;
  struct Sweep {
    check::App app;
    check::FaultPlan plan;
  };
  const Sweep sweeps[] = {
      {check::App::kMm, {}},     {check::App::kSor, {}},
      {check::App::kLu, {}},     {check::App::kMm, lossy},
      {check::App::kSor, lossy}, {check::App::kLu, lossy},
      {check::App::kMm, crash},
  };
  int migrations = 0;
  for (const Sweep& sweep : sweeps) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      check::Scenario sc = check::generate_scenario(seed, sweep.app);
      check::apply_fault_plan(sc, sweep.plan);
      obs::Observability hub;
      const check::FuzzResult res = run_with_hub(sc, hub);
      ASSERT_TRUE(res.ok) << sc.describe();
      const obs::CausalGraph g =
          obs::build_causal_graph(hub.trace, hub.ledger);
      EXPECT_TRUE(g.well_formed()) << sc.describe() << "\n"
                                   << problems_of(g);
      migrations += static_cast<int>(
          std::count_if(g.spans.begin(), g.spans.end(), [](const auto& s) {
            return s.kind == obs::SpanKind::kMigration;
          }));
    }
  }
  EXPECT_GT(migrations, 0);  // the round check had pairs to compare
}

TEST(CausalGraph, ValidatorFlagsNonMonotoneRoundsAndNegativeSpans) {
  obs::TraceBus bus;
  obs::DecisionLedger ledger;
  bus.complete(0, 100, 1, 1, "cz", "cz.window", {"rank", 0.0}, {"round", 2.0},
               {"blocked", 0.0});
  bus.complete(100, 200, 1, 1, "cz", "cz.window", {"rank", 0.0},
               {"round", 1.0}, {"blocked", 0.0});
  bus.complete(300, 250, 1, 1, "cz", "cz.window", {"rank", 0.0},
               {"round", 3.0}, {"blocked", 0.0});
  const obs::CausalGraph g = obs::build_causal_graph(bus, ledger);
  EXPECT_FALSE(g.well_formed());
  bool saw_monotone = false;
  bool saw_negative = false;
  for (const std::string& p : g.problems) {
    saw_monotone = saw_monotone || p.find("not monotone") != std::string::npos;
    saw_negative = saw_negative || p.find("negative") != std::string::npos;
  }
  EXPECT_TRUE(saw_monotone) << problems_of(g);
  EXPECT_TRUE(saw_negative) << problems_of(g);
}

TEST(CausalGraph, ValidatorFlagsInstructionWithoutReport) {
  obs::TraceBus bus;
  obs::DecisionLedger ledger;
  // An applied instruction on rank 0 round 1 with no report anywhere.
  bus.instant(50, 1, 1, "lb", "slave.instr", {"rank", 0.0}, {"round", 1.0});
  const obs::CausalGraph g = obs::build_causal_graph(bus, ledger);
  EXPECT_FALSE(g.well_formed());
  ASSERT_FALSE(g.problems.empty());
  EXPECT_NE(g.problems.front().find("no matching report"), std::string::npos);

  // The same orphaned application on an evicted rank is fine: its round
  // subgraph terminated with the crash.
  obs::TraceBus bus2;
  bus2.instant(50, 1, 1, "lb", "slave.instr", {"rank", 0.0}, {"round", 1.0});
  bus2.instant(60, 0, 0, "lb", "lb.evict", {"rank", 0.0});
  const obs::CausalGraph g2 = obs::build_causal_graph(bus2, ledger);
  EXPECT_TRUE(g2.well_formed()) << problems_of(g2);
}

TEST(CausalGraph, ValidatorFlagsMigrationRoundMismatch) {
  obs::DecisionLedger ledger;
  // Rank 0 sends to rank 1 twice; per-peer FIFO pairs the first receive
  // with the first send.
  obs::TraceBus bus;
  bus.complete(10, 20, 1, 1, "cz", "cz.move_send", {"rank", 0.0},
               {"to", 1.0}, {"round", 2.0});
  bus.complete(30, 40, 1, 1, "cz", "cz.move_send", {"rank", 0.0},
               {"to", 1.0}, {"round", 3.0});
  bus.complete(50, 60, 2, 2, "cz", "cz.move_recv", {"rank", 1.0},
               {"from", 0.0}, {"round", 3.0});
  const obs::CausalGraph g = obs::build_causal_graph(bus, ledger);
  ASSERT_EQ(g.problems.size(), 1u);
  EXPECT_NE(g.problems.front().find("sent in round 2 but received in round 3"),
            std::string::npos)
      << problems_of(g);

  obs::TraceBus bus2;
  bus2.complete(10, 20, 1, 1, "cz", "cz.move_send", {"rank", 0.0},
                {"to", 1.0}, {"round", 2.0});
  bus2.complete(50, 60, 2, 2, "cz", "cz.move_recv", {"rank", 1.0},
                {"from", 0.0}, {"round", 2.0});
  EXPECT_TRUE(obs::build_causal_graph(bus2, ledger).well_formed());
}

TEST(CriticalPath, CoversTheRunAndOrdersSteps) {
  check::Scenario sc = check::generate_scenario(11, check::App::kMm);
  obs::Observability hub;
  const check::FuzzResult res = run_with_hub(sc, hub);
  ASSERT_TRUE(res.ok);
  const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
  const obs::CriticalPath path = obs::critical_path(g);
  ASSERT_FALSE(path.steps.empty());
  for (std::size_t i = 1; i < path.steps.size(); ++i) {
    EXPECT_LE(path.steps[i - 1].begin, path.steps[i].begin);
  }
  // The path cannot be longer than the wall it explains.
  EXPECT_LE(sim::to_seconds(path.length()), g.wall_s() + 1e-9);
  EXPECT_GT(sim::to_seconds(path.length()), 0.0);

  const auto edges = obs::top_edges(path, 3);
  ASSERT_FALSE(edges.empty());
  EXPECT_LE(edges.size(), 3u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_GE(edges[i - 1].total, edges[i].total);  // heaviest first
  }
  int steps = 0;
  for (const auto& e : edges) steps += e.count;
  EXPECT_LE(steps, static_cast<int>(path.steps.size()));
}

TEST(Runfile, RoundtripPreservesTheGraph) {
  // Seed 9 moves work, so migration spans and nonzero units_moved must
  // survive the round trip too.
  check::Scenario sc = check::generate_scenario(9, check::App::kMm);
  obs::Observability hub;
  const check::FuzzResult res = run_with_hub(sc, hub);
  ASSERT_TRUE(res.ok);
  const obs::CausalGraph before =
      obs::build_causal_graph(hub.trace, hub.ledger);

  std::ostringstream os;
  obs::write_runfile(os, hub.trace, hub.ledger, hub.metrics.prometheus_text(),
                     {{"app", "mm"}, {"note", "roundtrip"}});
  std::istringstream is(os.str());
  obs::LoadedRun run;
  std::string error;
  ASSERT_TRUE(obs::load_runfile(is, run, error)) << error;
  EXPECT_EQ(run.meta.at("app"), "mm");
  EXPECT_EQ(run.ledger.records().size(), hub.ledger.records().size());
  EXPECT_EQ(run.trace.events().size(), hub.trace.events().size());
  EXPECT_EQ(run.metrics, hub.metrics.prometheus_text());

  const obs::CausalGraph after = obs::build_causal_graph(run.trace, run.ledger);
  EXPECT_TRUE(after.well_formed()) << problems_of(after);
  EXPECT_EQ(after.nranks, before.nranks);
  ASSERT_EQ(after.rounds.size(), before.rounds.size());
  EXPECT_EQ(after.spans.size(), before.spans.size());
  bool moved = false;
  for (std::size_t i = 0; i < after.rounds.size(); ++i) {
    EXPECT_EQ(after.rounds[i].round, before.rounds[i].round);
    EXPECT_EQ(after.rounds[i].units_moved, before.rounds[i].units_moved);
    EXPECT_NEAR(after.rounds[i].efficiency, before.rounds[i].efficiency,
                1e-12);
    moved = moved || after.rounds[i].units_moved > 0;
  }
  EXPECT_TRUE(moved) << "no round moved work";
  int migrations = 0;
  for (const obs::CausalSpan& s : after.spans)
    migrations += s.kind == obs::SpanKind::kMigration ? 1 : 0;
  EXPECT_GT(migrations, 0) << "no migration span survived the round trip";
  EXPECT_NEAR(after.efficiency(), before.efficiency(), 1e-12);

  // Writing the loaded run again reproduces the exact same file: the
  // format is canonical, so runfiles can be diffed byte-for-byte.
  std::ostringstream os2;
  obs::write_runfile(os2, run.trace, run.ledger, run.metrics, run.meta);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(Runfile, MalformedInputsAreRejectedWithLineNumbers) {
  auto rejects = [](const std::string& text, const char* needle) {
    std::istringstream is(text);
    obs::LoadedRun run;
    std::string error;
    EXPECT_FALSE(obs::load_runfile(is, run, error)) << text;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  rejects("", "empty input");
  rejects("garbage\n", "bad header");
  // Version 1 files kept a unit sum per ledger line and no metrics.
  rejects("nowlb-run 1\nend events=0 ledger=0\n", "bad header");
  rejects("nowlb-run 2\nwat 1 2\nend events=0 ledger=0 metrics=0\n",
          "unknown directive");
  rejects("nowlb-run 2\ne i 5 0 1 1 cz cz.window\n", "missing end trailer");
  // Trailer counts catch truncation.
  rejects("nowlb-run 2\nend events=3 ledger=0 metrics=0\n", "count mismatch");
  rejects("nowlb-run 2\ne i 5 0 1 1 cz cz.window rank=x\n",
          "bad numeric arg value");
  rejects("nowlb-run 2\nledger 1 0 99 0 0 0 0 0.5 - - - - - ok\n"
          "end events=0 ledger=1 metrics=0\n",
          "gate out of range");
  // Two ranks' rates, one rank's remaining work.
  rejects("nowlb-run 2\nledger 1 0 0 0.2 4 3 0.1 0.5 1,2 1,2 5 3,2 0:1:2 "
          "rebalance\nend events=0 ledger=1 metrics=0\n",
          "line 2: ledger per-rank vectors differ in length");
  rejects("nowlb-run 2\nmetric lb_rounds twelve\n"
          "end events=0 ledger=0 metrics=1\n",
          "bad metric line");
  rejects("nowlb-run 2\nend events=0 ledger=0 metrics=0\ntrailing\n",
          "content after end");
}

}  // namespace
}  // namespace nowlb
