#include "perf/bench.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace nowlb::perf {

namespace {

/// Nearest-rank percentile (p in [0,100]) of a non-empty sample set.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

}  // namespace

double BenchResult::median() const { return percentile(samples, 50); }
double BenchResult::p90() const { return percentile(samples, 90); }
double BenchResult::min() const {
  return samples.empty() ? 0 : *std::min_element(samples.begin(),
                                                 samples.end());
}
double BenchResult::max() const {
  return samples.empty() ? 0 : *std::max_element(samples.begin(),
                                                 samples.end());
}

std::vector<BenchResult> Suite::run(const BenchOptions& opt,
                                    const std::string& filter,
                                    std::ostream& log) const {
  std::vector<const Benchmark*> selected;
  for (const Benchmark& b : benchmarks_) {
    if (filter.empty() || b.name.find(filter) != std::string::npos) {
      selected.push_back(&b);
    }
  }
  std::vector<BenchResult> out(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    BenchResult& r = out[i];
    r.name = selected[i]->name;
    r.unit = selected[i]->unit;
    r.higher_is_better = selected[i]->higher_is_better;
    r.reps = opt.effective_reps();
    r.warmup = opt.effective_warmup();
  }
  // Rounds are interleaved across benchmarks (all warmups, then rep 0 of
  // every benchmark, then rep 1, ...): a transient host-load spike then
  // contaminates one sample of many benchmarks instead of every sample of
  // one, which medians shrug off.
  for (int w = 0; w < opt.effective_warmup(); ++w) {
    for (const Benchmark* b : selected) {
      std::map<std::string, double> scratch;
      b->run(opt, scratch);
    }
  }
  for (int rep = 0; rep < opt.effective_reps(); ++rep) {
    for (std::size_t i = 0; i < selected.size(); ++i) {
      out[i].extra.clear();
      out[i].samples.push_back(selected[i]->run(opt, out[i].extra));
    }
  }
  for (const BenchResult& r : out) {
    log << "  " << r.name << ": median " << r.median() << " " << r.unit
        << " (p90 " << r.p90() << ", " << r.reps << " reps)\n";
  }
  return out;
}

}  // namespace nowlb::perf
