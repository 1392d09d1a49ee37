// Run files: a versioned, line-based text capture of one run's flight
// recorder — every trace event, the whole decision ledger and the metrics
// dump — so `nowlb-inspect` can export, check and diff the run after the
// fact. It is the recorder's only output: the Chrome trace, Prometheus
// dump and ledger explain exported from a loaded file are the live hub's
// bytes.
//
// Format (one directive per line, space-separated fields):
//
//   nowlb-run 2
//   meta <key>=<value>
//   host <id> <name>
//   lane <host> <lane> <name>
//   ledger <round> <t> <gate> <improvement> <projected_current_s>
//          <projected_new_s> <est_move_cost_s> <period_s> <raw_rates>
//          <rates> <remaining> <target> <moves> <reason...>
//   e <i|c> <t> <dur> <host> <lane> <cat> <name> [<key>=<value>]...
//   metric <line of the Prometheus dump>
//   end events=<N> ledger=<M> metrics=<K>
//
// A ledger line is one DecisionRecord. Each vector is one comma-separated
// token ("-" when empty); the four per-rank vectors hold one entry per
// rank, and a move is <from>:<to>:<count>. Times are simulated
// nanoseconds (integers); every other number round-trips at full double
// precision, infinities included. The trailer's counts make truncation
// detectable. Loading is strict: an unknown directive, a malformed field
// or a count mismatch fails the load with a diagnostic — `nowlb-inspect`
// turns that into a nonzero exit.
#pragma once

#include <deque>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace nowlb::obs {

/// A run loaded back from a run file. The trace stores `const char*`
/// category/name/key pointers; `pool` owns the interned strings and is
/// declared first so it outlives the bus.
struct LoadedRun {
  std::deque<std::string> pool;
  std::map<std::string, std::string> meta;
  TraceBus trace;
  DecisionLedger ledger;
  std::string metrics;  // the Prometheus dump, verbatim
};

/// Serialize one run: host/lane names, the full decision ledger, every
/// trace event and `metrics` (a MetricsRegistry::prometheus_text() dump).
void write_runfile(std::ostream& os, const TraceBus& trace,
                   const DecisionLedger& ledger, const std::string& metrics,
                   const std::map<std::string, std::string>& meta);

/// Parse a run file. Returns false and sets `error` (with a line number)
/// on any malformation; `out` is partially filled in that case and must
/// not be used.
bool load_runfile(std::istream& is, LoadedRun& out, std::string& error);

}  // namespace nowlb::obs
