// Critical-path analyzer over the causal round DAG (DESIGN.md §13).
//
// Walks backward from the last-completing span, at every step hopping to
// the latest-completing causal predecessor — the span whose completion
// actually released the current one. The resulting chain is the run's
// critical path: shrinking anything off it cannot shorten the run.
//
// top_edges() aggregates the path by (kind, rank) so `nowlb-inspect` can
// answer "what is the run waiting on" in one table: a path dominated by
// one rank's windows is imbalance, by report/instruction transit is
// interaction cost, by decision spans is a synchronous master on the
// critical path (the paper's Fig. 2a vs 2b distinction made measurable).
#pragma once

#include <cstddef>
#include <vector>

#include "obs/causal.hpp"

namespace nowlb::obs {

struct CriticalPath {
  /// Path spans in time order (earliest first).
  std::vector<CausalSpan> steps;
  /// Sum of the steps' durations.
  Time length() const;
};

/// Extract the critical path from a causal graph. Empty when the graph
/// has no spans.
CriticalPath critical_path(const CausalGraph& g);

/// One aggregated critical-path contributor.
struct EdgeWeight {
  SpanKind kind = SpanKind::kWindow;
  int rank = -1;        // -1: master-side
  Time total = 0;       // summed span time on the path
  int count = 0;        // path steps aggregated
  /// kWindow only: blocked share of `total`, in seconds.
  double blocked_s = 0;
};

/// Aggregate a path's steps by (kind, rank), heaviest first, top `k`.
std::vector<EdgeWeight> top_edges(const CriticalPath& path, std::size_t k);

}  // namespace nowlb::obs
