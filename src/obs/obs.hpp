// The observability hub: one object bundling the three flight-recorder
// parts — trace bus, metrics registry, decision ledger.
//
// Attach a hub to a World (obs::attach) and every instrumented layer
// records into it: the world and network write their trace events and
// sim_* metrics straight into it, and the master, slave agents and
// transports record through lb's recorder (lb/record.cpp). obs sits below
// sim in the layering and includes only util. Attachment is always
// optional: a null hub costs a pointer test or two per event, and an
// attached hub never perturbs the simulation clock or RNG streams, so
// traces stay bit-identical. A run file (obs/runfile.hpp) is how a hub
// leaves the process.
#pragma once

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

}  // namespace nowlb::obs
