// Canonical figure and fuzz workloads shared by nowlb-bench and the
// determinism regression suite (tests/perf/determinism_test.cpp).
//
// Each figure scenario runs one exp::figures() workload at paper size on
// 4 slaves with balancing on, which exercises the full runtime (master
// protocol, movement, competing loads). A run reports the engine trace
// hash, the dispatched-event count and a fixed-format printed summary —
// the three fingerprints the determinism suite pins across repeats,
// across obs recording, and across host-side optimizations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace nowlb::perf {

struct FigureRun {
  std::uint64_t trace_hash = 0;
  std::uint64_t dispatched_events = 0;
  double elapsed_virtual_s = 0;  // application completion, virtual time
  int lb_rounds = 0;             // balancing rounds (master stats)
  int units_moved = 0;           // units in ordered transfers
  int ledger_records = 0;        // decision-ledger rows (with_obs only)
  /// The run's printed output, fixed format — "all printed figure output
  /// is bit-identical" is asserted on this string.
  std::string summary;
};

struct FigureScenario {
  const char* name;  // "fig5.mm_dedicated", ...
  std::function<FigureRun(bool with_obs)> run;
};

/// The five reproduced figures, in paper order.
const std::vector<FigureScenario>& figure_scenarios();

/// One fuzz scenario class: a representative seed per (app, fault mode).
struct FuzzCase {
  const char* name;  // "fuzz.mm.clean", "fuzz.sor.faults", ...
  check::App app = check::App::kMm;
  std::uint64_t seed = 0;
  check::FaultPlan faults;  // default: fault-free
};

const std::vector<FuzzCase>& fuzz_cases();

/// Execute one fuzz case (optionally with the flight recorder attached).
check::FuzzResult run_fuzz_case(const FuzzCase& c, bool with_obs);

}  // namespace nowlb::perf
