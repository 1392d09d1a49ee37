// Load-balancing frequency selection (§4.3, Fig. 4).
//
// The target period between balancings is the largest of three lower
// bounds, so that (a) master interaction overhead stays negligible,
// (b) the system does not try to track load changes faster than work can
// usefully be moved, and (c) OS quantum context-switching effects average
// out of the measurements. Costs are measured continuously at run time;
// as work units shrink (LU) the rate rises and the same period maps to
// more units, automatically reducing the relative balancing overhead
// (§4.7).
#pragma once

#include <algorithm>

#include "lb/config.hpp"
#include "sim/time.hpp"

namespace nowlb::lb {

class FrequencyController {
 public:
  /// The Fig. 4 bounds: the period is at least these multiples of the
  /// master interaction cost, the cost of one movement event and the
  /// scheduling quantum.
  static constexpr double kInteractionMultiple = 20.0;
  static constexpr double kMovementMultiple = 0.1;
  static constexpr double kQuantaMultiple = 5.0;

  /// `quantum` is the slave hosts' scheduling quantum.
  FrequencyController(const LbConfig& cfg, Time quantum)
      : min_period_(cfg.min_period),
        quantum_(quantum),
        interaction_cost_(cfg.initial_interaction_cost),
        move_event_cost_(cfg.initial_move_cost) {}

  /// Record a measured master-interaction cost (slave blocked time).
  void observe_interaction(Time cost) {
    interaction_cost_ = ewma(interaction_cost_, cost);
  }

  /// Record the measured cost of one work-movement event.
  void observe_move_event(Time cost) {
    move_event_cost_ = ewma(move_event_cost_, cost);
  }

  Time interaction_cost() const { return interaction_cost_; }

  /// The target period between load balancings: the highest lower bound of
  /// Fig. 4 — max(interaction x 20, movement x 0.1, quantum x 5,
  /// min_period).
  Time period() const {
    const auto scaled = [](double m, Time t) {
      return static_cast<Time>(m * static_cast<double>(t));
    };
    Time p = min_period_;
    p = std::max(p, scaled(kInteractionMultiple, interaction_cost_));
    p = std::max(p, scaled(kMovementMultiple, move_event_cost_));
    p = std::max(p, scaled(kQuantaMultiple, quantum_));
    return p;
  }

  /// Work units a slave with predicted `rate` (units/s) should complete
  /// before its next balance round (at least one unit so hooks make
  /// progress).
  double units_for_period(double rate) const {
    return std::max(1.0, rate * sim::to_seconds(period()));
  }

 private:
  static Time ewma(Time old_value, Time sample) {
    // 0.5 smoothing keeps estimates responsive but stable.
    return (old_value + sample) / 2;
  }

  Time min_period_;
  Time quantum_;
  Time interaction_cost_;
  Time move_event_cost_;
};

}  // namespace nowlb::lb
