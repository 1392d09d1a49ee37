// The observability hub: one object bundling the three flight-recorder
// parts — trace bus, metrics registry, decision ledger.
//
// Attach a hub to a World (obs::attach) and every instrumented layer
// records into it: the engine and network through sim::TraceSink, the
// master, slave agents and transports through lb's recorder
// (lb/record.cpp). Attachment is always optional: a null hub costs a
// pointer test or two per event, and an attached hub never perturbs the
// simulation clock or RNG streams, so traces stay bit-identical.
#pragma once

#include <string>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nowlb::obs {

struct Observability {
  TraceBus trace;
  MetricsRegistry metrics;
  DecisionLedger ledger;

  void clear() {
    trace.clear();
    metrics.clear();
    ledger.clear();
  }
};

/// Write the hub's trace as Chrome trace JSON to `trace_path` and its
/// metrics as Prometheus text to `metrics_path`; an empty path skips that
/// file. Each outcome is reported on stderr, so stdout stays the same.
/// Returns false when a requested file could not be written.
bool write_files(const Observability& hub, const std::string& trace_path,
                 const std::string& metrics_path);

}  // namespace nowlb::obs
