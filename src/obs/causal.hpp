// Causal round graph: reconstructed per-round DAG of one run (DESIGN.md
// §13).
//
// build_causal_graph() joins the trace bus's cz.* annotations (measurement
// windows, report/instruction timestamps, migration spans) with the
// decision ledger into, per wire round, a breakdown of where the time went
// — compute, blocked waits, report/instruction transport, master decision
// time, work migration — and a parallel-efficiency series (compute share
// of the round's rank-seconds). The span list is the substrate the
// critical-path analyzer (obs/critical_path.hpp) walks.
//
// The builder validates well-formedness as it goes: monotone window rounds
// per rank, non-negative span durations, every applied instruction backed
// by a report from the same rank (unless the rank was evicted — a killed
// rank's round subgraph simply terminates), both halves of a migration
// naming the same ordering round, and no events from a rank after its
// eviction. Violations land in CausalGraph::problems; a graph from a
// healthy run has none.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace nowlb::obs {

class TraceBus;
class DecisionLedger;

/// What a causal span spends its time on.
enum class SpanKind : std::uint8_t {
  kWindow,         // slave measurement window (compute + blocked share)
  kReportTransit,  // status report: slave send -> master arrival
  kDecision,       // master: collection end -> instructions sent
  kInstrTransit,   // instructions: master send -> slave application
  kMigration,      // work movement: donor pack/send -> receiver unpack
};

const char* span_kind_name(SpanKind k);

/// One node of the causal DAG, placed in simulated time.
struct CausalSpan {
  SpanKind kind = SpanKind::kWindow;
  int rank = -1;  // owning slave rank; -1 for master-side spans
  int peer = -1;  // migration target rank (kMigration only)
  /// Wire round (kDecision: decision-ledger round — the numbering the
  /// master's lb.round/lb.decision events use).
  int round = 0;
  Time begin = 0;
  Time end = 0;
  /// Blocked share of a kWindow span, in seconds (waits on application
  /// communication and on the balancer, per the slave's accumulator).
  double blocked_s = 0;

  Time dur() const { return end - begin; }
};

/// Where one wire round's time went, summed over the ranks that took part.
struct RoundBreakdown {
  int round = 0;           // wire round (slave-side numbering)
  int decision_round = 0;  // decision-ledger round carried, 0 = priming
  int gate = -1;           // obs::Gate of that decision, -1 = none seen
  int ranks = 0;           // ranks whose window closed this round
  Time t_begin = 0;        // earliest window begin
  Time t_end = 0;          // latest event of the round
  double compute_s = 0;    // window time minus blocked share
  double blocked_s = 0;    // blocked share of the windows
  double transport_s = 0;  // report + instruction transit
  double decision_s = 0;   // master decision span
  double migration_s = 0;  // work-movement spans ordered by this round
  long units_moved = 0;    // units the carried decision ordered moved
  /// compute / (ranks x round wall): the round's parallel efficiency.
  double efficiency = 0;
};

struct CausalGraph {
  int nranks = 0;                     // distinct slave ranks seen
  std::vector<RoundBreakdown> rounds;  // ascending by wire round
  std::vector<CausalSpan> spans;       // all spans, time-ordered by begin
  std::vector<int> evicted;            // ranks evicted (or killed) mid-run
  std::vector<std::string> problems;   // well-formedness violations

  bool well_formed() const { return problems.empty(); }

  /// Total compute seconds across every window span.
  double total_compute_s() const;
  /// Overall wall span covered by the graph, in seconds.
  double wall_s() const;
  /// Run-level parallel efficiency: compute / (nranks x wall).
  double efficiency() const;
};

/// Reconstruct the causal round DAG of one run from its flight-recorder
/// trace and decision ledger. Works on any trace with cz.* annotations
/// (emitted whenever a hub is attached).
CausalGraph build_causal_graph(const TraceBus& trace,
                               const DecisionLedger& ledger);

}  // namespace nowlb::obs
