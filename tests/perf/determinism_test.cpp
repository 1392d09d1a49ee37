// Determinism lockdown for the figures and four fuzz scenarios.
//
// Two guarantees are pinned here, and together they license every host-side
// optimization in sim/msg/lb/data:
//
//   1. Run-to-run: each exp::figures() entry (4 slaves, balancing on) and
//      each fuzz case below, run twice plus once with the flight recorder
//      attached, produces bit-identical results: every Measurement field,
//      engine trace hash and dispatched-event count included. Observation
//      must never perturb the simulation.
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

#include "check/scenario.hpp"
#include "exp/registry.hpp"
#include "obs/obs.hpp"

namespace nowlb {
namespace {

struct FigureGolden {
  const char* name;
  std::uint64_t trace_hash;
  std::uint64_t dispatched_events;
};

// gtest prints a parameter through PrintTo, and ctest names each case
// after that text; without one it dumps the struct's bytes, pointer
// included, and the names change with every build.
void PrintTo(const FigureGolden& g, std::ostream* os) { *os << g.name; }

// Captured pre-optimization; see file comment.
constexpr FigureGolden kFigureGoldens[] = {
    {"fig5.mm_dedicated", 0x6bb90cf2543d1ed5ull, 5241},
    {"fig6.sor_dedicated", 0x42721f23808a194cull, 14659},
    {"fig7.mm_loaded", 0x3271a830d0842406ull, 4595},
    {"fig8.sor_loaded", 0x7b6f921ce6e2c034ull, 18239},
    {"fig9.mm_oscillating", 0x4840d57dc1d349full, 16985},
};

/// One representative seed per app, fault-free, and one MM seed under
/// heavy loss, duplication and reordering.
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
  const exp::ExperimentConfig bare = exp::config(w, 4);
  exp::ExperimentConfig recorded = bare;
  obs::Observability hub;
  recorded.obs = &hub;
  const exp::Measurement a = exp::run(w, /*use_lb=*/true, bare);
  const exp::Measurement b = exp::run(w, /*use_lb=*/true, bare);
  const exp::Measurement c = exp::run(w, /*use_lb=*/true, recorded);

  // Run-to-run, and with the flight recorder attached.
  EXPECT_EQ(fields(a), fields(b));
  EXPECT_EQ(fields(a), fields(c)) << "obs recording perturbed the run";

  // The recorder actually recorded (it was attached, not ignored).
  EXPECT_GT(hub.ledger.records().size(), 0u);

  // Cross-version goldens: host-side optimizations must not shift these.
  EXPECT_TRUE(a.trace_hash == g.trace_hash &&
              a.dispatched_events == g.dispatched_events)
      << g.name << ": the event schedule changed; if intended, its golden "
      << "is now {\"" << g.name << "\", 0x" << std::hex << a.trace_hash
      << "ull, " << std::dec << a.dispatched_events << "}";
  EXPECT_GT(a.stats.rounds, 0);
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

// Every figure the registry declares has a golden, and every golden names
// a figure: adding a figure without pinning it fails here.
TEST(DeterminismCoverage, GoldensMatchScenarioList) {
  std::map<std::string, int> names;
  for (const exp::Figure& f : exp::figures()) names[f.name]++;
  for (const FigureGolden& g : kFigureGoldens) names[g.name]--;
  for (const auto& [name, delta] : names) {
    EXPECT_EQ(delta, 0) << name << " lacks a golden or a figure";
  }
}

}  // namespace
}  // namespace nowlb
