// Trend-adaptive rate filter (§3.2).
//
// "New rate information for each slave is filtered by averaging it with
// older rate information, with relative weights set according to trends
// observed in the rates." A steady sequence of same-direction changes means
// the rate really is moving (competing task started/stopped), so the filter
// weights new data more; isolated spikes are damped to prevent oscillation.
#pragma once

#include <cmath>

namespace nowlb::lb {

class TrendFilter {
 public:
  /// Weight of new rate data when the trend is not established.
  static constexpr double kAlpha = 0.3;
  /// Weight of new rate data once kTrendLen consecutive samples moved in
  /// the same direction (rates really are changing).
  static constexpr double kFastAlpha = 0.75;
  static constexpr int kTrendLen = 3;

  /// Feed a raw rate sample; returns the filtered (adjusted) rate.
  double update(double raw) {
    if (!initialized_) {
      initialized_ = true;
      filtered_ = raw;
      return filtered_;
    }
    const int direction = raw > filtered_ ? 1 : (raw < filtered_ ? -1 : 0);
    if (direction != 0 && direction == last_direction_) {
      ++run_length_;
    } else {
      run_length_ = 1;
    }
    last_direction_ = direction;

    const double a = run_length_ >= kTrendLen ? kFastAlpha : kAlpha;
    filtered_ += a * (raw - filtered_);
    return filtered_;
  }

  double value() const { return filtered_; }
  bool initialized() const { return initialized_; }
  /// Length of the current run of same-direction changes.
  int trend_run() const { return run_length_; }

  void reset() {
    initialized_ = false;
    filtered_ = 0;
    last_direction_ = 0;
    run_length_ = 0;
  }

  /// Override the filter state (used when the controller adjusts an idle
  /// slave's estimate from outside the measurement stream).
  void force(double v) {
    initialized_ = true;
    filtered_ = v;
    last_direction_ = 0;
    run_length_ = 0;
  }

 private:
  bool initialized_ = false;
  double filtered_ = 0;
  int last_direction_ = 0;
  int run_length_ = 0;
};

}  // namespace nowlb::lb
