// Matrix multiplication (MM) — the paper's simplest application.
//
// C = A x B with the distributed loop over columns of C (owner-computes:
// the owner of B's column j computes C's column j; A is replicated).
// Table 1 row: no loop-carried dependences, no communication outside the
// loop, repeated execution (the benchmark multiplies `repeats` times).
// Movement is unrestricted (Fig. 1a).
#pragma once

#include <memory>
#include <vector>

#include "lb/cluster.hpp"
#include "loop/spec.hpp"
#include "sim/world.hpp"

namespace nowlb::apps {

struct MmConfig {
  int n = 500;            // square matrix dimension == work units
  int repeats = 1;        // distributed-loop invocations (phases)
  bool real_compute = false;  // do the arithmetic (tests) or cost-only
  sim::Time mac_cost = 2'000;  // virtual ns per multiply-accumulate
  std::uint64_t seed = 42;     // input matrix generator
};

/// Shared observation state (host-side; the simulation is cooperative
/// single-threaded so plain shared access is safe).
struct MmShared {
  // Inputs (row-major A, column-major B), filled by make_inputs.
  std::vector<double> a;                  // n x n row-major
  std::vector<std::vector<double>> b;     // n columns
  // Output written by whichever slave owns each column (per last repeat).
  std::vector<std::vector<double>> c;     // n columns
  // Diagnostics.
  std::vector<int> columns_computed;          // per rank, across phases
  std::vector<int> compute_count_per_column;  // across phases; checks ==repeats
};

/// The loop-nest description a compiler front end would extract.
loop::LoopNestSpec mm_spec(const MmConfig& cfg);

/// Analytic sequential execution time (seconds of virtual time).
double mm_seq_time_s(const MmConfig& cfg);

/// Reference sequential multiply (same FP evaluation order as the
/// parallel kernel, so results must match bit-for-bit).
std::vector<std::vector<double>> mm_sequential(const MmConfig& cfg,
                                               const MmShared& shared);

/// Generate the input matrices into `shared`.
void mm_make_inputs(const MmConfig& cfg, MmShared& shared);

/// Spawn the MM slave programs into `cluster` (calls cluster.spawn).
/// `shared` must outlive the world run.
void mm_build(lb::Cluster& cluster, const MmConfig& cfg,
              std::shared_ptr<MmShared> shared);

/// Cluster configuration for MM on `slaves` slaves with LB config `lb`.
lb::ClusterConfig mm_cluster_config(const MmConfig& cfg, int slaves,
                                    const lb::LbConfig& lb);

}  // namespace nowlb::apps
