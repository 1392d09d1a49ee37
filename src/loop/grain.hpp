// Grain-size control by strip mining (§4.4).
//
// Pipelined loops communicate per iteration of the pipelined (inner) loop;
// when iterations are smaller than the OS scheduling quantum, execution
// times between synchronization points become erratic under
// multiprogramming and communication overhead dominates. The compiler
// strip-mines the inner loop; the block size is chosen *at startup* from a
// measurement of actual iteration times so that one block takes
// ~1.5 x quantum (150 ms on the paper's system). SOR's rank 0 times a few
// rows and passes the cost to block_size_for.
#pragma once

#include "sim/time.hpp"

namespace nowlb::loop {

/// Block size (iterations) so one block costs ~`target`; at least 1, at
/// most `extent`.
int block_size_for(sim::Time target, sim::Time per_iteration, int extent);

/// Paper's target: 1.5 x the scheduling quantum.
sim::Time grain_target(sim::Time quantum);

}  // namespace nowlb::loop
