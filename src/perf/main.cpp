// nowlb-bench: the repo's perf harness (DESIGN.md §12).
//
//   nowlb-bench                      # full run, writes BENCH_<date>.json
//   nowlb-bench --quick              # CI mode: fewer reps, same workloads
//   nowlb-bench --filter=engine      # subset by substring
//   nowlb-bench --out=FILE           # report path override
//   nowlb-bench --list               # print benchmark names and exit
//   nowlb-bench --hashes             # print determinism fingerprints
//
// Compare two reports with scripts/bench_compare.py.
#include <fstream>
#include <iostream>

#include "perf/bench.hpp"
#include "perf/report.hpp"
#include "perf/scenarios.hpp"
#include "perf/wallclock.hpp"
#include "util/cli.hpp"

using namespace nowlb;

namespace {

/// Golden-fingerprint table for tests/perf/determinism_test.cpp: run every
/// figure scenario and fuzz case once and print hash/output constants.
int print_hashes() {
  std::cout << std::hex;
  for (const auto& fig : perf::figure_scenarios()) {
    const auto r = fig.run(/*with_obs=*/false);
    std::cout << "{\"" << fig.name << "\", 0x" << r.trace_hash << "ull, "
              << std::dec << r.dispatched_events << std::hex << "},\n";
    std::cout << "//   " << r.summary << "\n";
  }
  for (const auto& fc : perf::fuzz_cases()) {
    const auto r = perf::run_fuzz_case(fc, /*with_obs=*/false);
    std::cout << "{\"" << fc.name << "\", 0x" << r.trace_hash << "ull},"
              << (r.ok ? "" : "  // NOT OK") << "\n";
  }
  std::cout << std::dec;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"hashes", "list", "quick", "reps", "warmup",
                             "filter", "label", "out"});
  if (cli.get_bool("hashes", false)) return print_hashes();

  perf::Suite suite = perf::default_suite();
  if (cli.get_bool("list", false)) {
    for (const auto& b : suite.benchmarks()) {
      std::cout << b.name << " (" << b.group << ", " << b.unit << ")\n";
    }
    return 0;
  }

  perf::BenchOptions opt;
  opt.quick = cli.get_bool("quick", false);
  opt.reps = static_cast<int>(cli.get_int("reps", 0));
  opt.warmup = static_cast<int>(cli.get_int("warmup", -1));
  const std::string filter = cli.get("filter", "");

  perf::ReportMeta meta;
  meta.date = perf::utc_date();
  meta.label = cli.get("label", "");
  meta.quick = opt.quick;
  const std::string out =
      cli.get("out", "BENCH_" + meta.date + ".json");

  std::cout << "nowlb-bench: " << (opt.quick ? "quick" : "full") << " run, "
            << opt.effective_reps() << " reps, warmup "
            << opt.effective_warmup() << "\n";
  const auto results = suite.run(opt, filter, std::cout);
  if (results.empty()) {
    std::cerr << "no benchmark matches filter '" << filter << "'\n";
    return 2;
  }

  std::ofstream f(out);
  if (!f) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  f << perf::to_json(meta, results);
  std::cout << "wrote " << out << " (" << results.size()
            << " benchmarks)\n";
  return 0;
}
