// Determinism lockdown for the perf workloads (ISSUE: perf harness).
//
// Two guarantees are pinned here, and together they license every host-side
// optimization in sim/msg/lb/data:
//
//   1. Run-to-run: each figure scenario and fuzz case, run twice plus once
//      with the flight recorder attached, produces byte-identical
//      fingerprints (engine trace hash, dispatched-event count, printed
//      summary). Observation must never perturb the simulation.
//   2. Cross-version: the fingerprints equal golden constants captured
//      before the allocation/batching optimizations landed. An optimization
//      that changes any virtual-time event ordering — rather than just host
//      CPU/allocation cost — trips these goldens and is rejected.
//
// Regenerate goldens (only for *intentional* semantic changes, e.g. a new
// protocol message) with: nowlb-bench --hashes
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "perf/scenarios.hpp"

namespace nowlb::perf {
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

// Captured pre-optimization (nowlb-bench --hashes); see file comment.
constexpr FigureGolden kFigureGoldens[] = {
    {"fig5.mm_dedicated", 0x6bb90cf2543d1ed5ull, 5241},
    {"fig6.sor_dedicated", 0x42721f23808a194cull, 14659},
    {"fig7.mm_loaded", 0x3271a830d0842406ull, 4595},
    {"fig8.sor_loaded", 0x7b6f921ce6e2c034ull, 18239},
    {"fig9.mm_oscillating", 0x4840d57dc1d349full, 16985},
};

struct FuzzGolden {
  const char* name;
  std::uint64_t trace_hash;
};

void PrintTo(const FuzzGolden& g, std::ostream* os) { *os << g.name; }

constexpr FuzzGolden kFuzzGoldens[] = {
    {"fuzz.mm.clean", 0xb0e7652e2abed0e3ull},
    {"fuzz.sor.clean", 0x1d0016d0b108d1d2ull},
    {"fuzz.lu.clean", 0x6e9e048b47f4d373ull},
    {"fuzz.mm.faults", 0x453508ba345e4f6ull},
};

const FigureScenario* find_figure(const std::string& name) {
  for (const auto& f : figure_scenarios()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

const FuzzCase* find_fuzz(const std::string& name) {
  for (const auto& c : fuzz_cases()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

class FigureDeterminism : public ::testing::TestWithParam<FigureGolden> {};

TEST_P(FigureDeterminism, RepeatAndObsRunsAreBitIdentical) {
  const FigureGolden& g = GetParam();
  const FigureScenario* fig = find_figure(g.name);
  ASSERT_NE(fig, nullptr) << g.name << " missing from figure_scenarios()";

  const FigureRun a = fig->run(/*with_obs=*/false);
  const FigureRun b = fig->run(/*with_obs=*/false);
  const FigureRun c = fig->run(/*with_obs=*/true);

  // Run-to-run, and with the flight recorder attached.
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_hash, c.trace_hash) << "obs recording perturbed the run";
  EXPECT_EQ(a.dispatched_events, b.dispatched_events);
  EXPECT_EQ(a.dispatched_events, c.dispatched_events);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.summary, c.summary);

  // The recorder actually recorded (it was attached, not ignored).
  EXPECT_EQ(a.ledger_records, 0);
  EXPECT_GT(c.ledger_records, 0);

  // Cross-version goldens: host-side optimizations must not shift these.
  EXPECT_EQ(a.trace_hash, g.trace_hash)
      << g.name << ": event trace changed; if intentional, regenerate "
      << "goldens with nowlb-bench --hashes";
  EXPECT_EQ(a.dispatched_events, g.dispatched_events);
  EXPECT_GT(a.lb_rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureDeterminism,
                         ::testing::ValuesIn(kFigureGoldens));

class FuzzDeterminism : public ::testing::TestWithParam<FuzzGolden> {};

TEST_P(FuzzDeterminism, RepeatAndObsRunsAreBitIdentical) {
  const FuzzGolden& g = GetParam();
  const FuzzCase* fc = find_fuzz(g.name);
  ASSERT_NE(fc, nullptr) << g.name << " missing from fuzz_cases()";

  const check::FuzzResult a = run_fuzz_case(*fc, /*with_obs=*/false);
  const check::FuzzResult b = run_fuzz_case(*fc, /*with_obs=*/false);
  const check::FuzzResult c = run_fuzz_case(*fc, /*with_obs=*/true);

  EXPECT_TRUE(a.ok) << g.name;
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_hash, c.trace_hash) << "obs recording perturbed the run";
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.elapsed_s, c.elapsed_s);

  EXPECT_EQ(a.trace_hash, g.trace_hash)
      << g.name << ": event trace changed; if intentional, regenerate "
      << "goldens with nowlb-bench --hashes";
}

INSTANTIATE_TEST_SUITE_P(FuzzClasses, FuzzDeterminism,
                         ::testing::ValuesIn(kFuzzGoldens));

// Every scenario the bench ships is covered by a golden, and vice versa —
// adding a figure or fuzz class without pinning it fails here.
TEST(DeterminismCoverage, GoldensMatchScenarioList) {
  std::map<std::string, int> names;
  for (const auto& f : figure_scenarios()) names[f.name]++;
  for (const auto& g : kFigureGoldens) names[g.name]--;
  for (const auto& c : fuzz_cases()) names[c.name]++;
  for (const auto& g : kFuzzGoldens) names[g.name]--;
  for (const auto& [name, delta] : names) {
    EXPECT_EQ(delta, 0) << name << " lacks a golden or a scenario";
  }
}

}  // namespace
}  // namespace nowlb::perf
