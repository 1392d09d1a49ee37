#include "loop/grain.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace nowlb::loop {

sim::Time grain_target(sim::Time quantum) { return quantum + quantum / 2; }

int block_size_for(sim::Time target, sim::Time per_iteration, int extent) {
  NOWLB_CHECK(per_iteration > 0);
  NOWLB_CHECK(extent >= 1);
  const auto blocks = static_cast<int>(target / per_iteration);
  return std::clamp(blocks, 1, extent);
}

}  // namespace nowlb::loop
