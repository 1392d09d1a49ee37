// L001 fixture: util (layer 0) reaching up into lb (layer 5).
#pragma once

#include "lb/orders.hpp"

namespace fx {
inline int peek_units(const lbfx::Order& o) { return o.units; }
}  // namespace fx
