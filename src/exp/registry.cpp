#include "exp/registry.hpp"

#include "load/generators.hpp"

namespace nowlb::exp {

namespace {

apps::MmConfig mm_config(const Workload& w) {
  apps::MmConfig mm;
  mm.n = w.n;
  mm.repeats = w.outer;
  return mm;
}

apps::SorConfig sor_config(const Workload& w) {
  apps::SorConfig sor;
  sor.n = w.n;
  sor.sweeps = w.outer;
  sor.block_rows = w.block_rows;
  return sor;
}

apps::LuConfig lu_config(const Workload& w) {
  apps::LuConfig lu;
  lu.n = w.n;
  return lu;
}

}  // namespace

ExperimentConfig config(const Workload& w, int slaves) {
  ExperimentConfig cfg;
  cfg.slaves = slaves;
  cfg.world = paper_world();
  cfg.lb = paper_lb();
  switch (w.load) {
    case Load::kNone:
      break;
    case Load::kConstant:
      cfg.loads.push_back({0, [] { return load::constant(); }});
      break;
    case Load::kOscillating:
      cfg.loads.push_back({0, [] {
                             return load::oscillating(20 * sim::kSecond,
                                                      10 * sim::kSecond);
                           }});
      break;
  }
  return cfg;
}

Measurement run(const Workload& w, const ExperimentConfig& cfg,
                Trace* trace) {
  switch (w.app) {
    case apps::App::kMm:
      return run_mm(mm_config(w), cfg, trace);
    case apps::App::kSor:
      return run_sor(sor_config(w), cfg, trace);
    case apps::App::kLu:
      return run_lu(lu_config(w), cfg, trace);
  }
  return {};
}

double seq_time_s(const Workload& w) {
  switch (w.app) {
    case apps::App::kMm:
      return apps::mm_seq_time_s(mm_config(w));
    case apps::App::kSor:
      return apps::sor_seq_time_s(sor_config(w));
    case apps::App::kLu:
      return apps::lu_seq_time_s(lu_config(w));
  }
  return 0;
}

int min_n(apps::App app, int slaves) {
  switch (app) {
    case apps::App::kMm:
      return 1;
    case apps::App::kSor:
      return slaves + 2;
    case apps::App::kLu:
      return 2;
  }
  return 1;
}

const std::vector<Figure>& figures() {
  using apps::App;
  static const std::vector<Figure> kFigures = {
      {"fig5.mm_dedicated", {App::kMm, 500}},
      {"fig6.sor_dedicated", {App::kSor, 2000, 20}},
      {"fig7.mm_loaded", {App::kMm, 500, 1, Load::kConstant}},
      {"fig8.sor_loaded", {App::kSor, 2000, 20, Load::kConstant}},
      // Repeats stretch the run to the paper's ~100 s horizontal axis.
      {"fig9.mm_oscillating", {App::kMm, 500, 3, Load::kOscillating}},
  };
  return kFigures;
}

}  // namespace nowlb::exp
