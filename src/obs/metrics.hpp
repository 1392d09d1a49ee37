// Metrics registry: counters, gauges and histograms over a run.
//
// The simulation engine is single-threaded, so the hot path is a plain
// integer increment — no locks, no atomics ("lock-cheap"). Registration
// (name lookup) allocates; emitters resolve their metrics once and cache
// the returned reference, which stays stable for the registry's lifetime.
//
// One export format: Prometheus text exposition (with HELP/label
// escaping). It iterates metrics in name order, so two identical seeded
// runs produce byte-identical dumps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nowlb::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double v) { v_ += v; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

/// Fixed-bound histogram (Prometheus semantics: cumulative buckets plus an
/// implicit +Inf bucket, with sum and count).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];  // counts_[bounds_.size()] is the +Inf bucket
    sum_ += v;
    ++count_;
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is +Inf.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  double sum() const { return sum_; }
  std::uint64_t count() const { return count_; }

  /// Interpolated quantile estimate, Prometheus histogram_quantile
  /// semantics: find the bucket the q-th observation falls in and
  /// interpolate linearly inside it (from the bucket's lower bound). An
  /// estimate landing in the +Inf bucket clamps to the highest finite
  /// bound. Returns 0 on an empty histogram; `q` is clamped to [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0;
  std::uint64_t count_ = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create. Re-registering an existing name returns the same
  /// metric (help text from the first registration wins); registering the
  /// same name as a different kind is a programming error and throws.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Lookup without creation; nullptr when absent (or a different kind).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;

  /// Prometheus text exposition format (version 0.0.4).
  std::string prometheus_text() const;

  bool empty() const { return metrics_.empty(); }
  void clear() { metrics_.clear(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& get(const std::string& name, Kind kind, const std::string& help);

  std::map<std::string, Entry> metrics_;  // name-ordered: deterministic dumps
};

}  // namespace nowlb::obs
