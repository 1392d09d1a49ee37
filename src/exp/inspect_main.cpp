// nowlb-inspect: record one run of a paper figure to a run file, then read
// run files back: check them against the causal rules, explain where the
// time went (per-round breakdowns, a parallel-efficiency series, the
// critical path), export them, and diff two runs (DESIGN.md §13).
//
//   nowlb-inspect --record=bal.nir --figure=fig7.mm_loaded --n=160
//   nowlb-inspect --record=static.nir --figure=fig7.mm_loaded --n=160
//                 --no-balance
//   nowlb-inspect --report=bal.nir --top=5
//   nowlb-inspect --report=bal.nir --format=json
//   nowlb-inspect --report=bal.nir --format=chrome > bal.json  # Perfetto
//   nowlb-inspect --report=bal.nir --diff=static.nir
//
// --report exits 1 when the run breaks a causal rule, so it is also the
// check of a recording. The diff is the paper's Figs. 5-9 claim as a
// single number: the same workload with balancing on and as the static
// program (no master), compared by measured efficiency. Malformed or
// truncated run files fail the load with a nonzero exit.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "exp/registry.hpp"
#include "obs/causal.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "obs/runfile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using nowlb::obs::CausalGraph;
using nowlb::obs::CriticalPath;
using nowlb::obs::LoadedRun;
using nowlb::obs::RoundBreakdown;

int record(const nowlb::Cli& cli) {
  const std::string path = cli.get("record", "");
  const std::string figure = cli.get("figure", "");
  const auto& figs = nowlb::exp::figures();
  const auto fig =
      std::find_if(figs.begin(), figs.end(),
                   [&](const nowlb::exp::Figure& f) { return figure == f.name; });
  if (fig == figs.end()) {
    std::fprintf(stderr, "unknown --figure=%s (see --help)\n",
                 figure.c_str());
    return 2;
  }
  nowlb::exp::Workload w = fig->workload;
  w.n = cli.get_int("n", w.n);
  const int slaves = cli.get_int("slaves", 4, 1);
  const int least = nowlb::exp::min_n(w.app, slaves);
  if (w.n < least) {
    std::fprintf(stderr, "--n=%d is too small: %s on %d slaves needs "
                 "--n >= %d\n", w.n, nowlb::apps::app_name(w.app), slaves,
                 least);
    return 2;
  }
  nowlb::exp::ExperimentConfig cfg = nowlb::exp::config(w, slaves);
  cfg.world.seed = cli.get_int("seed", cfg.world.seed);
  cfg.balance = !cli.get_bool("no-balance", false);  // off: no master
  std::ofstream out(path);  // before the run, which may take long
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }

  nowlb::obs::Observability hub;
  cfg.obs = &hub;
  const nowlb::exp::Measurement m = nowlb::exp::run(w, cfg);

  auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::string(buf);
  };
  const std::map<std::string, std::string> meta = {
      {"figure", fig->name},
      {"app", nowlb::apps::app_name(w.app)},
      {"n", std::to_string(w.n)},
      {"slaves", std::to_string(slaves)},
      {"seed", std::to_string(cfg.world.seed)},
      {"balance", cfg.balance ? "on" : "off"},
      {"elapsed_s", fmt(m.elapsed_s)},
      {"speedup", fmt(m.speedup)},
      {"efficiency", fmt(m.efficiency)},  // the paper's §5.1 metric
  };
  nowlb::obs::write_runfile(out, hub.trace, hub.ledger,
                            hub.metrics.prometheus_text(), meta);
  if (!out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf(
      "recorded %s: %s n=%d slaves=%d balance=%s elapsed=%.3fs "
      "efficiency=%.3f (%zu events, %zu ledger rounds)\n",
      path.c_str(), fig->name, w.n, slaves, cfg.balance ? "on" : "off",
      m.elapsed_s, m.efficiency, hub.trace.events().size(),
      hub.ledger.records().size());
  return 0;
}

bool load(const std::string& path, LoadedRun& run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!nowlb::obs::load_runfile(in, run, error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

double meta_num(const LoadedRun& run, const std::string& key) {
  auto it = run.meta.find(key);
  if (it == run.meta.end()) return 0;
  return std::strtod(it->second.c_str(), nullptr);
}

void print_text_report(const LoadedRun& run, const CausalGraph& g,
                       std::size_t top_k) {
  std::printf("run:");
  for (const auto& [key, value] : run.meta) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  const double paper_eff = meta_num(run, "efficiency");
  if (g.rounds.empty()) {
    // A static run has no master and so no causal rounds: the trace
    // derives no efficiency, and the run's own metric is all there is.
    std::printf("overall: no balancing rounds recorded");
    if (paper_eff > 0) std::printf("; paper metric %.1f%%", 100 * paper_eff);
    std::printf("\n");
    for (const std::string& p : g.problems) {
      std::printf("PROBLEM: %s\n", p.c_str());
    }
    return;
  }
  std::printf(
      "%5s %5s %6s %5s %9s %9s %9s %9s %9s %6s\n", "round", "ranks", "gate",
      "moved", "compute", "blocked", "transprt", "decision", "migrate",
      "eff");
  for (const RoundBreakdown& r : g.rounds) {
    std::printf("%5d %5d %6s %5ld %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs %5.1f%%\n",
                r.round, r.ranks,
                r.gate >= 0
                    ? nowlb::obs::gate_name(static_cast<nowlb::obs::Gate>(r.gate))
                    : "-",
                r.units_moved, r.compute_s, r.blocked_s, r.transport_s,
                r.decision_s, r.migration_s, 100 * r.efficiency);
  }
  std::printf("overall: %d ranks, wall %.3fs, compute %.3fs, efficiency "
              "%.1f%%",
              g.nranks, g.wall_s(), g.total_compute_s(),
              100 * g.efficiency());
  if (paper_eff > 0) std::printf(" (paper metric %.1f%%)", 100 * paper_eff);
  std::printf("\n");
  if (!g.evicted.empty()) {
    std::printf("evicted ranks:");
    for (int r : g.evicted) std::printf(" %d", r);
    std::printf("\n");
  }

  const CriticalPath path = nowlb::obs::critical_path(g);
  std::printf("critical path: %zu steps, %.3fs of %.3fs wall\n",
              path.steps.size(), nowlb::sim::to_seconds(path.length()),
              g.wall_s());
  for (const auto& w : nowlb::obs::top_edges(path, top_k)) {
    std::printf("  %-14s", nowlb::obs::span_kind_name(w.kind));
    if (w.rank >= 0) {
      std::printf(" rank %-3d", w.rank);
    } else {
      std::printf(" master  ");
    }
    std::printf(" %8.3fs over %3d step(s)", nowlb::sim::to_seconds(w.total),
                w.count);
    if (w.blocked_s > 0) std::printf(" (%.3fs blocked)", w.blocked_s);
    std::printf("\n");
  }
  for (const std::string& p : g.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }
}

void print_json_report(const LoadedRun& run, const CausalGraph& g,
                       std::size_t top_k) {
  std::ostringstream os;
  os << "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : run.meta) {
    if (!first) os << ",";
    first = false;
    nowlb::write_json_string(os, key);
    os << ":";
    nowlb::write_json_string(os, value);
  }
  os << "},\"nranks\":" << g.nranks << ",\"wall_s\":" << g.wall_s()
     << ",\"compute_s\":" << g.total_compute_s() << ",\"efficiency\":";
  // Without causal rounds (a static run) the trace derives no efficiency.
  if (g.rounds.empty()) {
    os << "null";
  } else {
    os << g.efficiency();
  }
  os << ",\"rounds\":[";
  first = true;
  for (const RoundBreakdown& r : g.rounds) {
    if (!first) os << ",";
    first = false;
    os << "{\"round\":" << r.round << ",\"ranks\":" << r.ranks
       << ",\"gate\":" << r.gate << ",\"units_moved\":" << r.units_moved
       << ",\"compute_s\":" << r.compute_s
       << ",\"blocked_s\":" << r.blocked_s
       << ",\"transport_s\":" << r.transport_s
       << ",\"decision_s\":" << r.decision_s
       << ",\"migration_s\":" << r.migration_s
       << ",\"efficiency\":" << r.efficiency << "}";
  }
  os << "],\"critical_path\":[";
  const CriticalPath path = nowlb::obs::critical_path(g);
  first = true;
  for (const auto& w : nowlb::obs::top_edges(path, top_k)) {
    if (!first) os << ",";
    first = false;
    os << "{\"kind\":\"" << nowlb::obs::span_kind_name(w.kind)
       << "\",\"rank\":" << w.rank
       << ",\"total_s\":" << nowlb::sim::to_seconds(w.total)
       << ",\"steps\":" << w.count << ",\"blocked_s\":" << w.blocked_s
       << "}";
  }
  os << "],\"problems\":[";
  first = true;
  for (const std::string& p : g.problems) {
    if (!first) os << ",";
    first = false;
    nowlb::write_json_string(os, p);
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
}

int diff(const LoadedRun& a, const CausalGraph& ga, const std::string& path_b) {
  LoadedRun b;
  if (!load(path_b, b)) return 1;
  const CausalGraph gb =
      nowlb::obs::build_causal_graph(b.trace, b.ledger);

  auto describe = [](const char* tag, const LoadedRun& run,
                     const CausalGraph& g) {
    auto get = [&](const char* key) {
      auto it = run.meta.find(key);
      return it == run.meta.end() ? std::string("?") : it->second;
    };
    std::printf("%s: app=%s balance=%s elapsed=%.3fs efficiency=%.1f%% ",
                tag, get("app").c_str(), get("balance").c_str(),
                meta_num(run, "elapsed_s"), 100 * meta_num(run, "efficiency"));
    if (g.rounds.empty()) {
      std::printf("(no balancing rounds recorded)\n");
    } else {
      std::printf("(trace-derived %.1f%%), %zu rounds\n",
                  100 * g.efficiency(), g.rounds.size());
    }
  };
  describe("A", a, ga);
  describe("B", b, gb);

  const double eff_a = meta_num(a, "efficiency");
  const double eff_b = meta_num(b, "efficiency");
  const double el_a = meta_num(a, "elapsed_s");
  const double el_b = meta_num(b, "elapsed_s");
  if (eff_a > 0 && eff_b > 0) {
    std::printf("efficiency delta (A - B): %+.1f points\n",
                100 * (eff_a - eff_b));
  }
  if (el_a > 0 && el_b > 0) {
    std::printf("elapsed delta: A is %+.1f%% vs B (%.3fs vs %.3fs)\n",
                100 * (el_a - el_b) / el_b, el_a, el_b);
  }
  const bool ok = ga.well_formed() && gb.well_formed();
  for (const std::string& p : ga.problems) std::printf("A PROBLEM: %s\n", p.c_str());
  for (const std::string& p : gb.problems) std::printf("B PROBLEM: %s\n", p.c_str());
  return ok ? 0 : 1;
}

std::string usage() {
  std::string u =
      "usage: nowlb-inspect --record=FILE --figure=NAME [--n=N] [--slaves=P]\n"
      "                     [--seed=S] [--no-balance]\n"
      "       nowlb-inspect --report=FILE [--top=K]\n"
      "                     [--format=text|json|chrome|prometheus|explain]\n"
      "       nowlb-inspect --report=FILE --diff=FILE2\n"
      "figures:";
  for (const nowlb::exp::Figure& f : nowlb::exp::figures()) {
    u += std::string(" ") + f.name;
  }
  return u +
         "\n\n"
         "--record runs one point of a paper figure (default 4 slaves) with\n"
         "the flight recorder attached and writes its run file;\n"
         "--no-balance runs the static program, with no master. --report\n"
         "reads a run file. text and json reconstruct the causal round DAG:\n"
         "per-round time breakdown (compute / blocked / transport /\n"
         "decision / migration), efficiency series, and the critical\n"
         "path's top contributors. chrome, prometheus and explain export\n"
         "the trace, the metrics and the decision ledger. The exit status\n"
         "is 1 when the run breaks a causal rule. --diff compares two runs\n"
         "- balancing on vs off on the same workload reproduces the\n"
         "paper's efficiency claim as one number.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const nowlb::Cli cli(argc, argv,
                       {"record", "figure", "n", "slaves", "seed",
                        "no-balance", "report", "format", "top", "diff"},
                       usage());
  if (!cli.has("record") && !cli.has("report")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 2;
  }

  if (cli.has("record")) return record(cli);

  const std::string format = cli.get("format", "text");
  const char* const formats[] = {"text", "json", "chrome", "prometheus",
                                 "explain"};
  if (std::find(std::begin(formats), std::end(formats), format) ==
      std::end(formats)) {
    std::fprintf(stderr,
                 "unknown --format=%s (text|json|chrome|prometheus|explain)\n",
                 format.c_str());
    return 2;
  }
  const auto top_k = cli.get_int<std::size_t>("top", 5);
  LoadedRun run;
  if (!load(cli.get("report", ""), run)) return 1;
  const CausalGraph g = nowlb::obs::build_causal_graph(run.trace, run.ledger);

  if (cli.has("diff")) return diff(run, g, cli.get("diff", ""));
  if (format == "text") {
    print_text_report(run, g, top_k);
  } else if (format == "json") {
    print_json_report(run, g, top_k);
  } else {
    if (format == "chrome") {
      nowlb::obs::write_chrome_trace(std::cout, run.trace);
    } else if (format == "prometheus") {
      std::cout << run.metrics;
    } else {
      std::cout << run.ledger.explain();
    }
    for (const std::string& p : g.problems) {
      std::fprintf(stderr, "PROBLEM: %s\n", p.c_str());
    }
  }
  return g.well_formed() ? 0 : 1;
}
