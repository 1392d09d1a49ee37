// Virtual time for the discrete-event simulator.
//
// Integer nanoseconds keep event ordering exact and runs bit-reproducible;
// doubles appear only at the API edges (reports, configuration). The type
// lives in util so the flight recorder (obs/) can stamp events without
// including the simulator (sim/time.hpp re-exports it as sim::Time).
#pragma once

#include <cstdint>

namespace nowlb {

/// Virtual time / duration in nanoseconds.
using Time = std::int64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond = 1'000'000'000;

/// Convert seconds (double) to Time, rounding to nearest nanosecond.
constexpr Time from_seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond) +
                           (s >= 0 ? 0.5 : -0.5));
}

/// Convert Time to seconds.
constexpr double to_seconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace nowlb
