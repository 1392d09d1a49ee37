// LoopNestSpec: the declarative description of a sequential loop nest that
// a parallelizing compiler's front end extracts (bounds, dependences,
// nesting, iteration-size behaviour).
//
// This is the input to "automatic generation": from a spec, the framework
// derives the application properties of Table 1, the movement restriction,
// the hook placement, the strip-mine block size, and the master control
// program — every compiler task of Table 2 is implemented against this
// structure rather than against Fortran syntax (see DESIGN.md §2).
#pragma once

#include <functional>
#include <string>

#include "data/slice.hpp"
#include "sim/time.hpp"

namespace nowlb::loop {

struct LoopNestSpec {
  std::string name;

  /// Iterations of the distributed loop == number of data slices.
  int distributed_extent = 0;

  /// Iterations of the inner loop nested in each distributed iteration
  /// (e.g. rows per column); 1 if the distributed loop body is flat.
  int inner_extent = 1;

  /// How many times the distributed loop is invoked (enclosing loop).
  int outer_iters = 1;

  /// The distributed loop carries dependences between iterations
  /// (neighbouring slices communicate; execution pipelines).
  bool loop_carried_dependences = false;

  /// Statements outside the distributed loop reference distributed data
  /// (broadcast/exchange before or after each invocation).
  bool communication_outside_loop = false;

  /// Bounds of the distributed loop per outer iteration; identity when the
  /// bounds are static. (LU: [k+1, n) for outer iteration k.)
  std::function<data::SliceRange(int outer)> bounds;

  /// Iteration cost varies with the distributed index (LU: column updates
  /// shrink as the active region shrinks).
  bool index_dependent_iteration_size = false;

  /// Iteration cost depends on data values (conditionals in the body).
  bool data_dependent_iteration_size = false;

  /// Virtual CPU cost of one (outer, slice) iteration of the distributed
  /// loop — the calibrated model of the sequential body.
  std::function<sim::Time(int outer, data::SliceId slice)> iteration_cost;
};

/// The derived per-application properties — one row of the paper's Table 1.
struct AppProperties {
  std::string name;
  bool loop_carried_dependences = false;
  bool communication_outside_loop = false;
  bool repeated_execution = false;
  bool varying_loop_bounds = false;
  bool index_dependent_iteration_size = false;
  bool data_dependent_iteration_size = false;
};

/// Analyze a spec into its Table-1 row.
AppProperties analyze(const LoopNestSpec& spec);

}  // namespace nowlb::loop
