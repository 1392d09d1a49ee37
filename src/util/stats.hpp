// Streaming statistics over repeated measurements.
//
// The paper reports "the average of at least 3 measurements" with vertical
// bars showing the range; Accumulator provides exactly those summaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace nowlb {

/// Welford-style streaming accumulator: count / mean / min / max / stddev.
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// Half-width of the min..max range bar the paper draws.
  double range_halfwidth() const { return n_ ? (max_ - min_) / 2.0 : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace nowlb
