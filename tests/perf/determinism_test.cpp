// Determinism lockdown for the figures and six fuzz scenarios.
//
// Two guarantees are pinned here, and together they license every host-side
// optimization in sim/msg/lb/data:
//
//   1. Run-to-run: each exp::figures() entry (4 slaves, balanced and
//      static) and each fuzz case below, run twice plus once with the
//      flight recorder attached, produces bit-identical results: every
//      Measurement field, engine trace hash and dispatched-event count
//      included. Observation must never perturb the simulation.
//   2. Cross-version: the fingerprints equal golden constants captured
//      before the allocation/batching optimizations landed. An optimization
//      that changes any virtual-time event ordering — rather than just host
//      CPU/allocation cost — trips these goldens and is rejected.
//
// A golden mismatch prints the run's new fingerprint in the table's form;
// update a golden only for an *intentional* semantic change, e.g. a new
// protocol message.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "check/scenario.hpp"
#include "exp/registry.hpp"
#include "obs/obs.hpp"

namespace nowlb {
namespace {

struct FigureGolden {
  const char* name;
  bool balance;  // false: the static program, with no master
  std::uint64_t trace_hash;
  std::uint64_t dispatched_events;
};

// gtest prints a parameter through PrintTo, and ctest names each case
// after that text; without one it dumps the struct's bytes, pointer
// included, and the names change with every build.
void PrintTo(const FigureGolden& g, std::ostream* os) {
  *os << g.name << (g.balance ? "" : ".static");
}

// Captured pre-optimization; see file comment. The static goldens pin the
// static program: its masterless agents must schedule exactly what the same
// loop with no agent would.
constexpr FigureGolden kFigureGoldens[] = {
    {"fig5.mm_dedicated", true, 0x6bb90cf2543d1ed5ull, 5241},
    {"fig6.sor_dedicated", true, 0x42721f23808a194cull, 14659},
    {"fig7.mm_loaded", true, 0x3271a830d0842406ull, 4595},
    {"fig8.sor_loaded", true, 0x7b6f921ce6e2c034ull, 18239},
    {"fig9.mm_oscillating", true, 0x4840d57dc1d349full, 16985},
    {"fig5.mm_dedicated", false, 0xa5f555cd97ef4865ull, 2504},
    {"fig6.sor_dedicated", false, 0x465901763dbdfefeull, 10314},
    {"fig7.mm_loaded", false, 0xd513f3d27839b1a5ull, 3129},
    {"fig8.sor_loaded", false, 0x23f7b74bf52c225ull, 12120},
    {"fig9.mm_oscillating", false, 0xfaefc12a04c39ccull, 8179},
};

/// One representative seed per app, fault-free, and one MM seed under
/// heavy loss, duplication and reordering. MM seed 7 draws a synchronous
/// master (no other golden does), clean and with a mid-run crash that the
/// synchronous master recovers from.
struct FuzzGolden {
  const char* name;
  check::App app;
  std::uint64_t seed;
  check::FaultPlan faults;
  std::uint64_t trace_hash;
};

void PrintTo(const FuzzGolden& g, std::ostream* os) { *os << g.name; }

constexpr FuzzGolden kFuzzGoldens[] = {
    {"fuzz.mm.clean", check::App::kMm, 11, {}, 0xb0e7652e2abed0e3ull},
    {"fuzz.sor.clean", check::App::kSor, 12, {}, 0x1d0016d0b108d1d2ull},
    {"fuzz.lu.clean", check::App::kLu, 13, {}, 0x6e9e048b47f4d373ull},
    {"fuzz.mm.faults", check::App::kMm, 14,
     {.drop_rate = 0.15, .dup_rate = 0.1, .reorder_delay = 3 * kMillisecond},
     0x453508ba345e4f6ull},
    {"fuzz.mm.sync", check::App::kMm, 7, {}, 0x47ab8d9ba35a549cull},
    {"fuzz.mm.sync_crash", check::App::kMm, 7,
     {.drop_rate = 0.05,
      .dup_rate = 0.02,
      .reorder_delay = 500 * kMicrosecond,
      .kill_rank = 1,
      .kill_round = 3},
     0xd74adb91635e61e5ull},
};

/// Every field of a measurement, so two runs compare bit for bit.
auto fields(const exp::Measurement& m) {
  const lb::MasterStats& s = m.stats;
  return std::make_tuple(m.elapsed_s, m.seq_s, m.speedup, m.efficiency,
                         m.competing_cpu_s, s.rounds, s.moves_ordered,
                         s.units_moved, s.cancelled_threshold,
                         s.cancelled_profit, s.last_period_s, s.evictions,
                         s.orphans_reassigned, m.trace_hash,
                         m.dispatched_events);
}

class FigureDeterminism : public ::testing::TestWithParam<FigureGolden> {};

TEST_P(FigureDeterminism, RepeatAndObsRunsAreBitIdentical) {
  const FigureGolden& g = GetParam();
  const exp::Figure* fig = nullptr;
  for (const exp::Figure& f : exp::figures()) {
    if (std::string(f.name) == g.name) fig = &f;
  }
  ASSERT_NE(fig, nullptr) << g.name << " missing from exp::figures()";

  const exp::Workload& w = fig->workload;
  exp::ExperimentConfig bare = exp::config(w, 4);
  bare.balance = g.balance;
  exp::ExperimentConfig recorded = bare;
  obs::Observability hub;
  recorded.obs = &hub;
  const exp::Measurement a = exp::run(w, bare);
  const exp::Measurement b = exp::run(w, bare);
  const exp::Measurement c = exp::run(w, recorded);

  // Run-to-run, and with the flight recorder attached.
  EXPECT_EQ(fields(a), fields(b));
  EXPECT_EQ(fields(a), fields(c)) << "obs recording perturbed the run";

  // The recorder actually recorded (it was attached, not ignored); only a
  // balanced run has rounds to put in the ledger.
  EXPECT_GT(hub.trace.events().size(), 0u);
  EXPECT_EQ(hub.ledger.records().empty(), !g.balance);

  // Cross-version goldens: host-side optimizations must not shift these.
  EXPECT_TRUE(a.trace_hash == g.trace_hash &&
              a.dispatched_events == g.dispatched_events)
      << g.name << ": the event schedule changed; if intended, its golden "
      << "is now {\"" << g.name << "\", " << std::boolalpha << g.balance
      << ", 0x" << std::hex << a.trace_hash << "ull, " << std::dec
      << a.dispatched_events << "}";
  if (g.balance) {
    EXPECT_GT(a.stats.rounds, 0);
  } else {
    EXPECT_EQ(a.stats.rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureDeterminism,
                         ::testing::ValuesIn(kFigureGoldens));

check::FuzzResult run_fuzz(const FuzzGolden& g, obs::Observability* hub) {
  check::Scenario sc = check::generate_scenario(g.seed, g.app);
  check::apply_fault_plan(sc, g.faults);
  return check::run_scenario(sc, check::InvariantSet::Fault::kNone, hub);
}

class FuzzDeterminism : public ::testing::TestWithParam<FuzzGolden> {};

TEST_P(FuzzDeterminism, RepeatAndObsRunsAreBitIdentical) {
  const FuzzGolden& g = GetParam();
  obs::Observability hub;
  const check::FuzzResult a = run_fuzz(g, nullptr);
  const check::FuzzResult b = run_fuzz(g, nullptr);
  const check::FuzzResult c = run_fuzz(g, &hub);

  EXPECT_TRUE(a.ok) << g.name;
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_hash, c.trace_hash) << "obs recording perturbed the run";
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.elapsed_s, c.elapsed_s);

  EXPECT_EQ(a.trace_hash, g.trace_hash)
      << g.name << ": the event schedule changed; if intended, its golden "
      << "hash is now 0x" << std::hex << a.trace_hash << "ull";
}

INSTANTIATE_TEST_SUITE_P(FuzzClasses, FuzzDeterminism,
                         ::testing::ValuesIn(kFuzzGoldens));

// Every figure the registry declares has a balanced and a static golden,
// and every golden names a figure: adding a figure without pinning it
// fails here.
TEST(DeterminismCoverage, GoldensMatchScenarioList) {
  std::map<std::pair<std::string, bool>, int> names;
  for (const exp::Figure& f : exp::figures()) {
    for (const bool balance : {true, false}) names[{f.name, balance}]++;
  }
  for (const FigureGolden& g : kFigureGoldens) names[{g.name, g.balance}]--;
  for (const auto& [key, delta] : names) {
    EXPECT_EQ(delta, 0) << key.first << (key.second ? "" : " (static)")
                        << " lacks a golden or a figure";
  }
}

}  // namespace
}  // namespace nowlb
