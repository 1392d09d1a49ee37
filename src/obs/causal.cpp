#include "obs/causal.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace nowlb::obs {

namespace {

/// Event arg lookup by key. Loaded runfiles intern their own strings, so
/// comparison must be by content, not pointer.
double arg(const TraceEvent& e, const char* key, double def = 0) {
  for (const TraceArg* a : {&e.a0, &e.a1, &e.a2}) {
    if (a->key != nullptr && std::strcmp(a->key, key) == 0) return a->value;
  }
  return def;
}

bool is(const TraceEvent& e, const char* cat, const char* name) {
  return std::strcmp(e.cat, cat) == 0 && std::strcmp(e.name, name) == 0;
}

struct Builder {
  Builder(const TraceBus& t, const DecisionLedger& l)
      : trace(t), ledger(l) {}

  const TraceBus& trace;
  const DecisionLedger& ledger;
  CausalGraph g;

  // Keyed (rank, round) -> event time; filled in one scan.
  std::map<std::pair<int, int>, Time> report_send, report_recv, instr_send,
      instr_apply;
  std::map<std::pair<int, int>, int> instr_decision;  // -> ledger round
  std::map<int, std::pair<Time, Time>> decision_span;  // ledger round
  std::map<int, std::pair<int, long>> decision_meta;   // -> (gate, units)
  std::map<int, Time> evict_time;                      // rank -> declared
  // Unmatched migration halves, per (from, to), in emission order.
  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> move_sends;

  void problem(const std::string& what) { g.problems.push_back(what); }

  void scan();
  void windows_and_moves();
  void derived_spans();
  void breakdowns();
};

void Builder::scan() {
  std::map<int, int> last_window_round;  // per rank, monotonicity check
  int max_rank = -1;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == TraceEvent::Phase::kComplete && e.dur < 0) {
      std::ostringstream os;
      os << "negative span duration: " << e.cat << "/" << e.name << " at t="
         << e.t;
      problem(os.str());
    }
    if (is(e, "cz", "cz.window")) {
      const int rank = static_cast<int>(arg(e, "rank", -1));
      const int round = static_cast<int>(arg(e, "round"));
      max_rank = std::max(max_rank, rank);
      auto it = last_window_round.find(rank);
      if (it != last_window_round.end() && round <= it->second) {
        std::ostringstream os;
        os << "rank " << rank << " window rounds not monotone: round "
           << round << " after round " << it->second;
        problem(os.str());
      }
      last_window_round[rank] = round;
    } else if (is(e, "lb", "slave.report")) {
      const int rank = static_cast<int>(arg(e, "rank", -1));
      const int round = static_cast<int>(arg(e, "round"));
      max_rank = std::max(max_rank, rank);
      report_send[{rank, round}] = e.t;
    } else if (is(e, "cz", "cz.report_recv")) {
      report_recv[{static_cast<int>(arg(e, "rank", -1)),
                   static_cast<int>(arg(e, "round"))}] = e.t;
    } else if (is(e, "cz", "cz.instr_send")) {
      const auto key = std::make_pair(static_cast<int>(arg(e, "rank", -1)),
                                      static_cast<int>(arg(e, "round")));
      instr_send[key] = e.t;
      instr_decision[key] = static_cast<int>(arg(e, "decision"));
    } else if (is(e, "lb", "slave.instr")) {
      const int rank = static_cast<int>(arg(e, "rank", -1));
      max_rank = std::max(max_rank, rank);
      instr_apply[{rank, static_cast<int>(arg(e, "round"))}] = e.t;
    } else if (is(e, "lb", "lb.round")) {
      decision_span[static_cast<int>(arg(e, "round"))] = {e.t, e.t + e.dur};
    } else if (is(e, "lb", "lb.evict")) {
      const int rank = static_cast<int>(arg(e, "rank", -1));
      if (evict_time.find(rank) == evict_time.end()) evict_time[rank] = e.t;
    }
  }
  g.nranks = max_rank + 1;
  for (const auto& [rank, t] : evict_time) g.evicted.push_back(rank);
  // Gate and ordered units come from the decision ledger alone.
  for (const DecisionRecord& r : ledger.records()) {
    long units = 0;
    for (const Move& m : r.moves) units += m.count;
    decision_meta[static_cast<int>(r.round)] = {static_cast<int>(r.gate),
                                                units};
  }
}

void Builder::windows_and_moves() {
  for (const TraceEvent& e : trace.events()) {
    if (is(e, "cz", "cz.window")) {
      CausalSpan s;
      s.kind = SpanKind::kWindow;
      s.rank = static_cast<int>(arg(e, "rank", -1));
      s.round = static_cast<int>(arg(e, "round"));
      s.begin = e.t;
      s.end = e.t + e.dur;
      s.blocked_s = arg(e, "blocked");
      g.spans.push_back(s);
    } else if (is(e, "cz", "cz.move_send")) {
      move_sends[{static_cast<int>(arg(e, "rank", -1)),
                  static_cast<int>(arg(e, "to", -1))}]
          .push_back(&e);
    } else if (is(e, "cz", "cz.move_recv")) {
      // Pair with the oldest unmatched send from that donor: per-peer
      // transfers are FIFO. The span covers donor pack/send through
      // receiver unpack. Both halves name the wire round whose
      // instructions ordered the transfer, each from its own rank's state,
      // so a FIFO pair must agree on it.
      const int to = static_cast<int>(arg(e, "rank", -1));
      const int from = static_cast<int>(arg(e, "from", -1));
      CausalSpan s;
      s.kind = SpanKind::kMigration;
      s.rank = from;
      s.peer = to;
      s.round = static_cast<int>(arg(e, "round"));
      s.begin = e.t;
      s.end = e.t + e.dur;
      auto& q = move_sends[{from, to}];
      if (!q.empty()) {
        const int sent_round = static_cast<int>(arg(*q.front(), "round"));
        if (sent_round != s.round) {
          std::ostringstream os;
          os << "migration " << from << "->" << to << " sent in round "
             << sent_round << " but received in round " << s.round;
          problem(os.str());
        }
        s.begin = q.front()->t;
        q.erase(q.begin());
      }
      g.spans.push_back(s);
    }
  }
  // Transfers whose receive never happened (dead receiver, dropped by an
  // eviction notice): keep the donor half so its cost is still attributed.
  for (auto& [key, sends] : move_sends) {
    for (const TraceEvent* e : sends) {
      CausalSpan s;
      s.kind = SpanKind::kMigration;
      s.rank = key.first;
      s.peer = key.second;
      s.round = static_cast<int>(arg(*e, "round"));
      s.begin = e->t;
      s.end = e->t + e->dur;
      g.spans.push_back(s);
    }
  }
}

void Builder::derived_spans() {
  for (const auto& [key, t_send] : report_send) {
    auto it = report_recv.find(key);
    if (it == report_recv.end()) continue;  // in flight at run end / lost
    CausalSpan s;
    s.kind = SpanKind::kReportTransit;
    s.rank = key.first;
    s.round = key.second;
    s.begin = t_send;
    s.end = it->second;
    g.spans.push_back(s);
  }
  for (const auto& [key, t_send] : instr_send) {
    auto it = instr_apply.find(key);
    if (it == instr_apply.end()) continue;  // rank died before applying
    CausalSpan s;
    s.kind = SpanKind::kInstrTransit;
    s.rank = key.first;
    s.round = key.second;
    s.begin = t_send;
    s.end = it->second;
    g.spans.push_back(s);
  }
  for (const auto& [round, span] : decision_span) {
    CausalSpan s;
    s.kind = SpanKind::kDecision;
    s.rank = -1;
    s.round = round;  // decision-ledger numbering
    s.begin = span.first;
    s.end = span.second;
    g.spans.push_back(s);
  }

  // Well-formedness: an applied instruction needs a report from the same
  // rank and round to answer — the protocol's request/response pairing —
  // except on a rank that was later evicted (its subgraph just ends) and
  // except a pipelined pre-paid application, whose report follows
  // immediately (still present in the trace, so the existence check is
  // order-insensitive and covers it).
  for (const auto& [key, t] : instr_apply) {
    if (report_send.find(key) != report_send.end()) continue;
    if (evict_time.find(key.first) != evict_time.end()) continue;
    std::ostringstream os;
    os << "instruction application round " << key.second << " on rank "
       << key.first << " has no matching report";
    problem(os.str());
  }
  // No slave-side events after the rank's eviction was declared: the
  // master only evicts ranks it believes dead, and a dead process emits
  // nothing. (Events from before the declaration are fine — eviction is
  // detected at a collection deadline, well after the crash.)
  for (const TraceEvent& e : trace.events()) {
    const bool slave_side = std::strcmp(e.cat, "cz") == 0 ||
                            (std::strcmp(e.cat, "lb") == 0 &&
                             std::strncmp(e.name, "slave.", 6) == 0);
    if (!slave_side) continue;
    const int rank = static_cast<int>(arg(e, "rank", -1));
    auto it = evict_time.find(rank);
    if (it != evict_time.end() && e.t > it->second) {
      std::ostringstream os;
      os << "evicted rank " << rank << " has event " << e.name << " at t="
         << e.t << " after its eviction at t=" << it->second;
      problem(os.str());
    }
  }

  std::stable_sort(
      g.spans.begin(), g.spans.end(),
      [](const CausalSpan& a, const CausalSpan& b) { return a.begin < b.begin; });
}

void Builder::breakdowns() {
  std::map<int, RoundBreakdown> by_round;
  auto touch = [&](int round) -> RoundBreakdown& {
    auto [it, inserted] = by_round.try_emplace(round);
    if (inserted) it->second.round = round;
    return it->second;
  };
  for (const CausalSpan& s : g.spans) {
    if (s.kind == SpanKind::kDecision) continue;  // joined via instr_send
    RoundBreakdown& r = touch(s.round);
    const double dur_s = to_seconds(s.dur());
    switch (s.kind) {
      case SpanKind::kWindow:
        ++r.ranks;
        r.compute_s += std::max(0.0, dur_s - s.blocked_s);
        r.blocked_s += s.blocked_s;
        if (r.t_begin == 0 || s.begin < r.t_begin) r.t_begin = s.begin;
        break;
      case SpanKind::kReportTransit:
      case SpanKind::kInstrTransit:
        r.transport_s += dur_s;
        break;
      case SpanKind::kMigration:
        r.migration_s += dur_s;
        break;
      case SpanKind::kDecision:
        break;
    }
    if (s.end > r.t_end) r.t_end = s.end;
  }
  // Join each wire round to the decision it carried (cz.instr_send's
  // decision arg), pulling in the master's decision time, gate and units.
  for (const auto& [key, d] : instr_decision) {
    if (d == 0) continue;  // pipelined priming: no decision yet
    RoundBreakdown& r = touch(key.second);
    r.decision_round = d;
    auto sp = decision_span.find(d);
    if (sp != decision_span.end()) {
      r.decision_s = to_seconds(sp->second.second - sp->second.first);
    }
    auto meta = decision_meta.find(d);
    if (meta != decision_meta.end()) {
      r.gate = meta->second.first;
      r.units_moved = meta->second.second;
    }
  }
  for (auto& [round, r] : by_round) {
    const double wall = to_seconds(r.t_end - r.t_begin);
    if (r.ranks > 0 && wall > 0) {
      r.efficiency = r.compute_s / (r.ranks * wall);
    }
    g.rounds.push_back(r);
  }
}

}  // namespace

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kWindow:
      return "window";
    case SpanKind::kReportTransit:
      return "report-transit";
    case SpanKind::kDecision:
      return "decision";
    case SpanKind::kInstrTransit:
      return "instr-transit";
    case SpanKind::kMigration:
      return "migration";
  }
  return "?";
}

double CausalGraph::total_compute_s() const {
  double total = 0;
  for (const CausalSpan& s : spans) {
    if (s.kind == SpanKind::kWindow) {
      total += std::max(0.0, to_seconds(s.dur()) - s.blocked_s);
    }
  }
  return total;
}

double CausalGraph::wall_s() const {
  if (spans.empty()) return 0;
  Time begin = spans.front().begin;
  Time end = 0;
  for (const CausalSpan& s : spans) end = std::max(end, s.end);
  return to_seconds(end - begin);
}

double CausalGraph::efficiency() const {
  const double wall = wall_s();
  if (nranks <= 0 || wall <= 0) return 0;
  return total_compute_s() / (nranks * wall);
}

CausalGraph build_causal_graph(const TraceBus& trace,
                               const DecisionLedger& ledger) {
  Builder b{trace, ledger};
  b.scan();
  b.windows_and_moves();
  b.derived_spans();
  b.breakdowns();
  return std::move(b.g);
}

}  // namespace nowlb::obs
