// nowlb-fuzz: deterministic simulation fuzzing for the load balancer.
//
// Runs N seeded scenarios per application with every invariant checker
// attached. Each failing seed is re-run to prove the failure is
// deterministic (identical event-trace hash and failure list), and a
// minimal repro command is printed.
//
//   nowlb-fuzz --seeds=200                 # seeds 1..200 x {mm, sor, lu}
//   nowlb-fuzz --app=sor --seed=1337       # replay one scenario, verbose
//   nowlb-fuzz --seeds=50 --inject-fault=skip-credit   # prove detection
//   nowlb-fuzz --seeds=50 --drop-rate=0.05 --dup-rate=0.02   # lossy net
//   nowlb-fuzz --app=mm --seeds=25 --drop-rate=0.05 --kill-slave=1@3
//   nowlb-fuzz --app=mm --seed=7 --record=mm7.nir   # then nowlb-inspect

#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "obs/obs.hpp"
#include "obs/runfile.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

using nowlb::check::App;
using nowlb::check::FuzzResult;
using nowlb::check::InvariantSet;
using nowlb::check::Scenario;

struct FailureRecord {
  std::uint64_t seed;
  App app;
  bool deterministic;
};

std::string repro_command(const Scenario& sc, const std::string& fault_flag,
                          const nowlb::check::FaultPlan& plan) {
  std::string cmd = "nowlb-fuzz --app=" + std::string(app_name(sc.app)) +
                    " --seed=" + std::to_string(sc.seed);
  if (!fault_flag.empty()) cmd += " --inject-fault=" + fault_flag;
  if (plan.drop_rate > 0) {
    cmd += " --drop-rate=" + std::to_string(plan.drop_rate);
  }
  if (plan.dup_rate > 0) cmd += " --dup-rate=" + std::to_string(plan.dup_rate);
  if (plan.reorder_delay > 0) {
    cmd += " --reorder-us=" +
           std::to_string(plan.reorder_delay / nowlb::sim::kMicrosecond);
  }
  if (plan.kill_rank >= 0) {
    cmd += " --kill-slave=" + std::to_string(plan.kill_rank) + "@" +
           std::to_string(plan.kill_round);
  }
  return cmd;
}

void print_failures(const FuzzResult& res) {
  for (const auto& f : res.failures) {
    std::printf("    [%s] t=%.6fs: %s\n", f.checker.c_str(),
                nowlb::sim::to_seconds(f.at), f.message.c_str());
  }
}

bool parse_level(const std::string& name, nowlb::LogLevel* out) {
  if (name == "trace") *out = nowlb::LogLevel::Trace;
  else if (name == "debug") *out = nowlb::LogLevel::Debug;
  else if (name == "info") *out = nowlb::LogLevel::Info;
  else if (name == "warn") *out = nowlb::LogLevel::Warn;
  else if (name == "error") *out = nowlb::LogLevel::Error;
  else if (name == "off") *out = nowlb::LogLevel::Off;
  else return false;
  return true;
}

/// `--log=debug` sets the global level; `--log=lb.transport=debug,lb=info`
/// raises individual components, named exactly as they log. Tokens
/// combine: `debug,lb.transport=trace`.
bool apply_log_flag(const std::string& flag) {
  std::size_t pos = 0;
  while (pos <= flag.size()) {
    const std::size_t comma = flag.find(',', pos);
    const std::string token = flag.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? flag.size() + 1 : comma + 1;
    if (token.empty()) continue;
    nowlb::LogLevel lvl;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (!parse_level(token, &lvl)) return false;
      nowlb::Log::set_level(lvl);
    } else {
      if (!parse_level(token.substr(eq + 1), &lvl)) return false;
      nowlb::Log::set_level(token.substr(0, eq), lvl);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // A misspelled flag must not silently fall back to defaults: a fuzzer
  // that quietly runs the wrong scenario set reports green for nothing.
  const nowlb::Cli cli(
      argc, argv,
      {"seeds", "base", "seed", "app", "log", "inject-fault", "verbose",
       "drop-rate", "dup-rate", "reorder-us", "kill-slave", "record"},
      "usage: nowlb-fuzz [--seeds=N] [--base=B] [--seed=S]\n"
      "                  [--app=mm|sor|lu|all] [--inject-fault=skip-credit|"
      "wrong-round]\n"
      "                  [--drop-rate=P] [--dup-rate=P] [--reorder-us=D]\n"
      "                  [--kill-slave=RANK@ROUND]  (MM only)\n"
      "                  [--record=FILE]  (one --seed of one --app)\n"
      "                  [--log=LEVEL|component=LEVEL,...] [--verbose]\n"
      "\n"
      "  --record=FILE   write the scenario's run file: every trace event,\n"
      "                  the decision ledger and the metrics; nowlb-inspect\n"
      "                  --report=FILE checks and exports it\n");

  const std::string app_flag = cli.get("app", "all");
  std::vector<App> apps;
  if (app_flag == "all") {
    apps = {App::kMm, App::kSor, App::kLu};
  } else if (app_flag == "mm") {
    apps = {App::kMm};
  } else if (app_flag == "sor") {
    apps = {App::kSor};
  } else if (app_flag == "lu") {
    apps = {App::kLu};
  } else {
    std::fprintf(stderr, "unknown --app=%s\n", app_flag.c_str());
    return 2;
  }

  const std::string log_flag = cli.get("log", "");
  if (!log_flag.empty() && !apply_log_flag(log_flag)) {
    std::fprintf(stderr,
                 "bad --log=%s (want LEVEL or component=LEVEL, comma-"
                 "separated; levels: trace debug info warn error off)\n",
                 log_flag.c_str());
    return 2;
  }

  const std::string fault_flag = cli.get("inject-fault", "");
  auto fault = InvariantSet::Fault::kNone;
  if (fault_flag == "skip-credit") {
    fault = InvariantSet::Fault::kSkipCredit;
  } else if (fault_flag == "wrong-round") {
    fault = InvariantSet::Fault::kWrongRound;
  } else if (!fault_flag.empty()) {
    std::fprintf(stderr, "unknown --inject-fault=%s\n", fault_flag.c_str());
    return 2;
  }

  nowlb::check::FaultPlan plan;
  plan.drop_rate = cli.get_double("drop-rate", 0.0);
  plan.dup_rate = cli.get_double("dup-rate", 0.0);
  plan.reorder_delay =
      static_cast<nowlb::sim::Time>(cli.get_int("reorder-us", 0)) *
      nowlb::sim::kMicrosecond;
  if (plan.drop_rate < 0 || plan.drop_rate >= 1 || plan.dup_rate < 0 ||
      plan.dup_rate >= 1 || plan.reorder_delay < 0) {
    std::fprintf(stderr, "fault rates must be in [0, 1), delays >= 0\n");
    return 2;
  }
  const std::string kill_flag = cli.get("kill-slave", "");
  if (!kill_flag.empty()) {
    // RANK or RANK@ROUND, each number whole: "1x@3" names no rank.
    const char* const end = kill_flag.data() + kill_flag.size();
    auto r = std::from_chars(kill_flag.data(), end, plan.kill_rank);
    if (r.ec == std::errc() && r.ptr != end && *r.ptr == '@') {
      r = std::from_chars(r.ptr + 1, end, plan.kill_round);
    }
    if (r.ec != std::errc() || r.ptr != end) plan.kill_rank = -1;
    if (plan.kill_rank < 0 || plan.kill_round < 1) {
      std::fprintf(stderr, "--kill-slave expects RANK@ROUND (e.g. 1@3)\n");
      return 2;
    }
    if (app_flag != "mm") {
      std::fprintf(stderr,
                   "--kill-slave requires --app=mm (SOR/LU have no "
                   "crash-recovery path)\n");
      return 2;
    }
  }

  const long long seeds_int = cli.get_int("seeds", 50);
  if (seeds_int <= 0) {
    std::fprintf(stderr, "--seeds=%s must be a positive integer\n",
                 cli.get("seeds", "").c_str());
    return 2;
  }
  // Cast to unsigned, a negative seed wraps the seed loop's end: nothing
  // would run, and the sweep would report a pass.
  for (const char* flag : {"base", "seed"}) {
    if (cli.get_int(flag, 1) < 0) {
      std::fprintf(stderr, "--%s=%s must be a non-negative integer\n", flag,
                   cli.get(flag, "").c_str());
      return 2;
    }
  }
  std::uint64_t base = static_cast<std::uint64_t>(cli.get_int("base", 1));
  std::uint64_t nseeds = static_cast<std::uint64_t>(seeds_int);
  if (cli.has("seed")) {
    base = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    nseeds = 1;
  }
  const bool verbose = cli.get_bool("verbose", nseeds == 1);

  // Flight recorder for one scenario. Attaching it never perturbs the
  // simulation (identical trace hash), so the file holds the exact run a
  // bare replay performs. File status goes to stderr: stdout stays
  // byte-identical with recording on or off.
  const std::string record_path = cli.get("record", "");
  if (cli.has("record") && (nseeds != 1 || apps.size() != 1)) {
    std::fprintf(stderr,
                 "--record needs one scenario: --seed=S and "
                 "--app=mm|sor|lu\n");
    return 2;
  }
  nowlb::obs::Observability hub;
  nowlb::obs::Observability* obs = cli.has("record") ? &hub : nullptr;
  std::map<std::string, std::string> meta;

  int runs = 0;
  std::vector<FailureRecord> failed;
  for (std::uint64_t seed = base; seed < base + nseeds; ++seed) {
    for (App app : apps) {
      Scenario sc = nowlb::check::generate_scenario(seed, app);
      if (plan.any()) nowlb::check::apply_fault_plan(sc, plan);
      const FuzzResult res = nowlb::check::run_scenario(sc, fault, obs);
      ++runs;
      if (verbose) {
        std::printf("%s: %s (%.3fs virtual, trace %016llx)\n",
                    sc.describe().c_str(), res.ok ? "ok" : "FAIL",
                    res.elapsed_s,
                    static_cast<unsigned long long>(res.trace_hash));
      }
      if (obs != nullptr) {
        meta = {{"app", app_name(sc.app)},
                {"scenario", sc.describe()},
                {"replay", repro_command(sc, fault_flag, plan)},
                {"result", res.ok ? "ok" : "FAIL"},
                {"elapsed_s", std::to_string(res.elapsed_s)}};
      }
      if (res.ok) continue;

      std::printf("FAIL %s\n", sc.describe().c_str());
      print_failures(res);

      // Re-run the seed: the simulation is deterministic, so the replay
      // must reproduce the identical event trace and failure list.
      const FuzzResult replay = nowlb::check::run_scenario(sc, fault);
      const bool same = replay.trace_hash == res.trace_hash &&
                        replay.failures.size() == res.failures.size();
      if (same) {
        std::printf("  replay: deterministic (trace %016llx, %zu failure(s) "
                    "again)\n",
                    static_cast<unsigned long long>(replay.trace_hash),
                    replay.failures.size());
      } else {
        std::printf("  replay: NOT DETERMINISTIC (trace %016llx vs %016llx, "
                    "%zu vs %zu failures) — determinism bug\n",
                    static_cast<unsigned long long>(res.trace_hash),
                    static_cast<unsigned long long>(replay.trace_hash),
                    res.failures.size(), replay.failures.size());
      }
      std::printf("  repro: %s\n",
                  repro_command(sc, fault_flag, plan).c_str());
      failed.push_back({seed, app, same});
    }
  }

  if (obs != nullptr) {
    std::ofstream out(record_path);
    nowlb::obs::write_runfile(out, hub.trace, hub.ledger,
                              hub.metrics.prometheus_text(), meta);
    if (!out.flush()) {
      std::fprintf(stderr, "record: failed to write %s\n",
                   record_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "record: wrote %s (%zu events, %zu ledger rounds)\n",
                 record_path.c_str(), hub.trace.events().size(),
                 hub.ledger.records().size());
  }

  if (failed.empty()) {
    std::printf("nowlb-fuzz: %d scenario(s) passed, 0 failed\n", runs);
    return 0;
  }
  std::printf("nowlb-fuzz: %d scenario(s), %zu FAILED:\n", runs,
              failed.size());
  for (const auto& f : failed) {
    std::printf("  --app=%s --seed=%llu%s\n", app_name(f.app),
                static_cast<unsigned long long>(f.seed),
                f.deterministic ? "" : "  [non-deterministic!]");
  }
  return 1;
}
