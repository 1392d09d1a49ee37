// L001 fixture target: a plain lb (layer 5) header that util/upward.hpp
// reaches up into. L001 only reports includes that resolve to a scanned
// file, so the header must exist.
#pragma once

namespace lbfx {

struct Order {
  int units = 0;
};

}  // namespace lbfx
