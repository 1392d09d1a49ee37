// nowlb-bench: the repo's micro-benchmark harness (DESIGN.md §12).
//
//   nowlb-bench                      # full run, writes BENCH_<date>.json
//   nowlb-bench --quick              # CI mode: fewer reps, same workloads
//   nowlb-bench --filter=engine      # subset by substring
//   nowlb-bench --out=FILE           # report path override
//   nowlb-bench --list               # print benchmark names and exit
//
// Compare two reports with scripts/bench_compare.py.
#include <fstream>
#include <iostream>

#include "perf/bench.hpp"
#include "perf/report.hpp"
#include "perf/wallclock.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"list", "quick", "reps", "warmup", "filter", "label", "out"});

  perf::Suite suite = perf::default_suite();
  if (cli.get_bool("list", false)) {
    for (const auto& b : suite.benchmarks()) {
      std::cout << b.name << " (" << b.unit << ")\n";
    }
    return 0;
  }

  perf::BenchOptions opt;
  opt.quick = cli.get_bool("quick", false);
  opt.reps = cli.get_int("reps", 0, 1);
  opt.warmup = cli.get_int("warmup", -1, 0);
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
