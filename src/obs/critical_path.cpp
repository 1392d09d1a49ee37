#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>

namespace nowlb::obs {

namespace {

/// Latest-ending span satisfying `pred` with end <= cutoff; null if none.
template <typename Pred>
const CausalSpan* latest_before(const std::vector<CausalSpan>& spans,
                                Time cutoff, Pred pred) {
  const CausalSpan* best = nullptr;
  for (const CausalSpan& s : spans) {
    if (s.end > cutoff || !pred(s)) continue;
    if (best == nullptr || s.end > best->end) best = &s;
  }
  return best;
}

/// The causal predecessor of `cur`: the span whose completion released it.
/// Uses the protocol's structure; falls back to the latest same-rank span
/// when the structural parent is missing (lost to the capacity cap, rank
/// died).
const CausalSpan* predecessor(const CausalGraph& g, const CausalSpan& cur) {
  const auto& spans = g.spans;
  switch (cur.kind) {
    case SpanKind::kInstrTransit: {
      // Instructions are sent from inside the master's decision span
      // (lb.round covers collection end -> all sends done), so the parent
      // decision *contains* the send rather than preceding it.
      const CausalSpan* best = nullptr;
      for (const CausalSpan& s : spans) {
        if (s.kind != SpanKind::kDecision || s.begin > cur.begin) continue;
        if (best == nullptr || s.begin > best->begin) best = &s;
      }
      if (best != nullptr) return best;
      return latest_before(spans, cur.begin, [&](const CausalSpan& s) {
        return s.kind == SpanKind::kReportTransit;
      });
    }
    case SpanKind::kDecision:
      // A decision starts when the last awaited report lands.
      return latest_before(spans, cur.begin, [](const CausalSpan& s) {
        return s.kind == SpanKind::kReportTransit;
      });
    case SpanKind::kReportTransit:
      // The report goes out the moment its measurement window closes.
      for (const CausalSpan& s : spans) {
        if (s.kind == SpanKind::kWindow && s.rank == cur.rank &&
            s.round == cur.round) {
          return &s;
        }
      }
      return nullptr;
    case SpanKind::kMigration:
      // Ordered by the instructions of the same wire round on the donor.
      for (const CausalSpan& s : spans) {
        if (s.kind == SpanKind::kInstrTransit && s.rank == cur.rank &&
            s.round == cur.round) {
          return &s;
        }
      }
      return latest_before(spans, cur.begin, [&](const CausalSpan& s) {
        return s.rank == cur.rank;
      });
    case SpanKind::kWindow:
      // A window opens when the previous report left — or, on a rank that
      // was refilled while drained, when work arrived (instructions or a
      // migration targeting it).
      return latest_before(spans, cur.begin, [&](const CausalSpan& s) {
        return (s.rank == cur.rank &&
                (s.kind == SpanKind::kWindow ||
                 s.kind == SpanKind::kInstrTransit)) ||
               (s.kind == SpanKind::kMigration && s.peer == cur.rank);
      });
  }
  return nullptr;
}

}  // namespace

Time CriticalPath::length() const {
  Time total = 0;
  for (const CausalSpan& s : steps) total += s.dur();
  return total;
}

CriticalPath critical_path(const CausalGraph& g) {
  CriticalPath path;
  if (g.spans.empty()) return path;
  const CausalSpan* cur = &g.spans.front();
  for (const CausalSpan& s : g.spans) {
    if (s.end > cur->end) cur = &s;
  }
  std::vector<const CausalSpan*> visited;
  while (cur != nullptr) {
    if (std::find(visited.begin(), visited.end(), cur) != visited.end()) {
      break;  // defensive: a malformed graph must not loop forever
    }
    visited.push_back(cur);
    path.steps.push_back(*cur);
    cur = predecessor(g, *cur);
  }
  std::reverse(path.steps.begin(), path.steps.end());
  return path;
}

std::vector<EdgeWeight> top_edges(const CriticalPath& path, std::size_t k) {
  std::map<std::pair<int, int>, EdgeWeight> agg;  // (kind, rank) ->
  for (const CausalSpan& s : path.steps) {
    EdgeWeight& w = agg[{static_cast<int>(s.kind), s.rank}];
    w.kind = s.kind;
    w.rank = s.rank;
    w.total += s.dur();
    w.count += 1;
    if (s.kind == SpanKind::kWindow) w.blocked_s += s.blocked_s;
  }
  std::vector<EdgeWeight> out;
  out.reserve(agg.size());
  for (const auto& [key, w] : agg) out.push_back(w);
  std::sort(out.begin(), out.end(), [](const EdgeWeight& a,
                                       const EdgeWeight& b) {
    if (a.total != b.total) return a.total > b.total;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.rank < b.rank;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace nowlb::obs
