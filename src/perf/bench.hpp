// Benchmark registry and runner (DESIGN.md §12).
//
// A Benchmark is a named closure returning one metric sample per timed
// repetition. The runner executes `warmup` untimed repetitions, then
// `reps` timed ones, and summarizes with nearest-rank median and p90 —
// robust to the occasional scheduler hiccup that poisons a mean.
//
// The simulated workload inside a sample is bit-identical from rep to rep
// (fixed seeds, virtual time); only the host's wall time varies. That is
// what makes two BENCH_*.json reports, the base commit's and a change's,
// comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace nowlb::perf {

struct BenchOptions {
  bool quick = false;  // CI mode: fewer reps/warmup (same workload sizes)
  int reps = 0;        // 0: default (quick ? 5 : 9)
  int warmup = -1;     // <0: default (quick ? 1 : 2)

  int effective_reps() const { return reps > 0 ? reps : (quick ? 5 : 9); }
  int effective_warmup() const {
    return warmup >= 0 ? warmup : (quick ? 1 : 2);
  }
};

struct BenchResult {
  std::string name;
  std::string unit;  // "events/s", "msgs/s", "x", ...
  bool higher_is_better = true;
  int reps = 0;
  int warmup = 0;
  std::vector<double> samples;  // one per timed repetition, in run order
  /// Auxiliary deterministic facts about the workload (event counts,
  /// trace-hash bits, recorder sizes, ...).
  std::map<std::string, double> extra;

  double median() const;
  double p90() const;
  double min() const;
  double max() const;
};

struct Benchmark {
  std::string name;
  std::string unit;
  bool higher_is_better = true;
  /// One repetition; returns the sample. May fill `extra` (kept from the
  /// last repetition, where every repetition writes the same values).
  std::function<double(const BenchOptions&, std::map<std::string, double>&)>
      run;
};

class Suite {
 public:
  void add(Benchmark b) { benchmarks_.push_back(std::move(b)); }
  const std::vector<Benchmark>& benchmarks() const { return benchmarks_; }

  /// Run every benchmark whose name contains `filter` (empty: all),
  /// logging one line per benchmark to `log`.
  std::vector<BenchResult> run(const BenchOptions& opt,
                               const std::string& filter,
                               std::ostream& log) const;

 private:
  std::vector<Benchmark> benchmarks_;
};

/// The nowlb suite: engine, transport, serialization, slice-store and
/// flight-recorder micro benchmarks.
Suite default_suite();

/// The `data.column_move` micro: columns/s through a SOR-shaped move. It
/// has a file of its own because GCC budgets inlining per file: inside
/// suite.cpp its inlined move code left `msg::encode` less inlined there,
/// and `msg.protocol_roundtrip` lost a fifth of its rate.
double column_move(const BenchOptions&, std::map<std::string, double>& extra);

}  // namespace nowlb::perf
