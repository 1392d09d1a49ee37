// Successive overrelaxation (SOR) — the paper's pipelined application
// (Fig. 3).
//
// Grid b[j][i] (column j, row i), distributed by columns; each sweep
// updates interior points row-by-row (row-major wavefront):
//
//   b[j][i] = 0.493*(b[j][i-1] + b[j-1][i] + b[j][i+1] + b[j+1][i])
//             - 0.972*b[j][i]
//
// b[j][i-1] and b[j-1][i] are this-sweep values (the wavefront), b[j][i+1]
// and b[j+1][i] are previous-sweep values. The row loop is strip-mined
// (§4.4) with the block size calibrated at startup to ~1.5 x the
// scheduling quantum; per strip, a rank receives its left-boundary column
// segment (new values) from the left rank and sends its right-boundary
// segment to the right rank. The previous-sweep values of the right
// neighbour's first column are exchanged whole at sweep start.
//
// Work movement is restricted to adjacent ranks (block distribution) and
// applies at strip-boundary hooks. Columns moved leftwards (donor behind)
// are *caught up* by the receiver, using old-value snapshots shipped in
// the payload, and the receiver retro-sends the ghost segments the donor
// now lacks; columns moved rightwards (donor ahead) are *set aside* until
// the receiver's wavefront reaches their marker (§4.5). The parallel
// update order is exactly the sequential row-major order, so results match
// sequential execution bit-for-bit.
#pragma once

#include <memory>
#include <vector>

#include "apps/probe.hpp"
#include "lb/cluster.hpp"
#include "loop/spec.hpp"
#include "sim/world.hpp"

namespace nowlb::apps {

struct SorConfig {
  int n = 2000;    // grid dimension; interior is 1..n-2
  int sweeps = 20;
  bool real_compute = false;
  sim::Time update_cost = 4'375;  // virtual ns per 5-point update
  /// Strip height in rows; 0 = calibrate at startup (rank 0 measures and
  /// broadcasts, §4.4).
  int block_rows = 0;
  std::uint64_t seed = 42;
};

struct SorShared {
  /// Column-major grid; input before the run, final values after it.
  /// During a run each slave moves its block's columns out and moves its
  /// final columns back at the end, so the interior columns are empty
  /// until the run ends: copy the input first to keep it. No slave writes
  /// the boundary columns 0 and n-1; slaves read them in place.
  std::vector<std::vector<double>> grid;
  /// Final owner rank of each column (diagnostic; boundary columns -1).
  std::vector<int> final_owner;
  /// Block size actually used (after calibration).
  int block_rows_used = 0;
  /// Units (column-sweeps) computed per rank, including catch-up work.
  std::vector<double> units_by_rank;
  /// Last blocking point per rank (debugging aid for protocol stalls).
  std::vector<Probe> probe;
};

loop::LoopNestSpec sor_spec(const SorConfig& cfg);
double sor_seq_time_s(const SorConfig& cfg);

/// In-place sequential reference (same FP order as the parallel kernel).
void sor_sequential(const SorConfig& cfg,
                    std::vector<std::vector<double>>& grid);

void sor_make_inputs(const SorConfig& cfg, SorShared& shared);

void sor_build(lb::Cluster& cluster, const SorConfig& cfg,
               std::shared_ptr<SorShared> shared);

lb::ClusterConfig sor_cluster_config(const SorConfig& cfg, int slaves,
                                     const lb::LbConfig& lb);

}  // namespace nowlb::apps
