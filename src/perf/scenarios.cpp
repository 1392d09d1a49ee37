#include "perf/scenarios.hpp"

#include <cstdio>

#include "exp/registry.hpp"
#include "obs/obs.hpp"

namespace nowlb::perf {

namespace {

/// Run one figure on 4 slaves with balancing on. The summary is a
/// fixed-format printed line; every field is derived from virtual time or
/// protocol counters, so two runs of the same figure must produce
/// byte-identical strings.
FigureRun run_figure(const exp::Figure& fig, bool with_obs) {
  obs::Observability hub;
  exp::ExperimentConfig cfg = exp::config(fig.workload, 4);
  if (with_obs) cfg.obs = &hub;
  const exp::Measurement m = exp::run(fig.workload, /*use_lb=*/true, cfg);

  FigureRun r;
  r.trace_hash = m.trace_hash;
  r.dispatched_events = m.dispatched_events;
  r.elapsed_virtual_s = m.elapsed_s;
  r.lb_rounds = m.stats.rounds;
  r.units_moved = m.stats.units_moved;
  r.ledger_records =
      with_obs ? static_cast<int>(hub.ledger.records().size()) : 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: elapsed=%.9fs speedup=%.6f eff=%.6f rounds=%d moved=%d "
                "events=%llu",
                fig.name, m.elapsed_s, m.speedup, m.efficiency,
                m.stats.rounds, m.stats.units_moved,
                static_cast<unsigned long long>(m.dispatched_events));
  r.summary = buf;
  return r;
}

}  // namespace

const std::vector<FigureScenario>& figure_scenarios() {
  static const std::vector<FigureScenario> kScenarios = [] {
    std::vector<FigureScenario> v;
    for (const exp::Figure& fig : exp::figures()) {
      v.push_back({fig.name, [&fig](bool with_obs) {
                     return run_figure(fig, with_obs);
                   }});
    }
    return v;
  }();
  return kScenarios;
}

const std::vector<FuzzCase>& fuzz_cases() {
  static const std::vector<FuzzCase> kCases = [] {
    std::vector<FuzzCase> v;
    v.push_back({"fuzz.mm.clean", check::App::kMm, 11, {}});
    v.push_back({"fuzz.sor.clean", check::App::kSor, 12, {}});
    v.push_back({"fuzz.lu.clean", check::App::kLu, 13, {}});
    FuzzCase faulty{"fuzz.mm.faults", check::App::kMm, 14, {}};
    faulty.faults.drop_rate = 0.15;
    faulty.faults.dup_rate = 0.1;
    faulty.faults.reorder_delay = 3 * sim::kMillisecond;
    v.push_back(faulty);
    return v;
  }();
  return kCases;
}

check::FuzzResult run_fuzz_case(const FuzzCase& c, bool with_obs) {
  check::Scenario sc = check::generate_scenario(c.seed, c.app);
  if (c.faults.any()) check::apply_fault_plan(sc, c.faults);
  obs::Observability hub;
  return check::run_scenario(sc, check::InvariantSet::Fault::kNone,
                             with_obs ? &hub : nullptr);
}

}  // namespace nowlb::perf
