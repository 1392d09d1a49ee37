// sim::Time — re-export of virtual time.
//
// The definitions live in util/time.hpp (the flight recorder below sim
// stamps events with them); simulation code keeps spelling them sim::Time,
// sim::kSecond, sim::to_seconds and so on.
#pragma once

#include "util/time.hpp"

namespace nowlb::sim {

using nowlb::from_seconds;
using nowlb::kMicrosecond;
using nowlb::kMillisecond;
using nowlb::kNanosecond;
using nowlb::kSecond;
using nowlb::Time;
using nowlb::to_seconds;

}  // namespace nowlb::sim
