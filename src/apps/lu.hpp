// LU decomposition (no pivoting) — the paper's shrinking-work application
// (Table 1, §4.7).
//
// Right-looking factorization, distributed by columns. At outer step k the
// owner of column k computes the multipliers and broadcasts them (the
// owner changes at run time with work movement, so receivers accept the
// pivot from any source — the §4.6 situation); every slave then updates
// its *active* columns (j > k). Columns <= k are inactive: they hold final
// factors and are never moved (§4.7). Both the distributed loop's bounds
// (k+1..n) and the per-iteration size (n-k rows) shrink with k, so the
// measured rate in units/s rises and the frequency controller
// automatically spaces balance rounds further apart in work units.
//
// The outer loop synchronizes via the pivot broadcast, not the master, so
// the run uses done-flag termination: slaves balance purely on hook
// counters and send a final report when the factorization ends.
#pragma once

#include <memory>
#include <vector>

#include "apps/probe.hpp"
#include "lb/cluster.hpp"
#include "loop/spec.hpp"
#include "sim/world.hpp"

namespace nowlb::apps {

struct LuConfig {
  int n = 500;
  bool real_compute = false;
  sim::Time update_cost = 2'900;  // virtual ns per element update
  std::uint64_t seed = 42;
};

struct LuShared {
  /// Column-major matrix; input before the run, L\U factors after.
  /// During a run each slave moves its block's columns out and moves its
  /// final columns back at the end, so copy the input first to keep it.
  std::vector<std::vector<double>> a;
  std::vector<int> final_owner;
  std::vector<double> units_by_rank;  // column-step updates per rank
  /// Last blocking point per rank (debugging aid for protocol stalls).
  std::vector<Probe> probe;
};

loop::LoopNestSpec lu_spec(const LuConfig& cfg);
double lu_seq_time_s(const LuConfig& cfg);

/// In-place sequential factorization (same FP order as the kernel).
void lu_sequential(const LuConfig& cfg, std::vector<std::vector<double>>& a);

void lu_make_inputs(const LuConfig& cfg, LuShared& shared);

void lu_build(lb::Cluster& cluster, const LuConfig& cfg,
              std::shared_ptr<LuShared> shared);

lb::ClusterConfig lu_cluster_config(const LuConfig& cfg, int slaves,
                                    const lb::LbConfig& lb);

}  // namespace nowlb::apps
