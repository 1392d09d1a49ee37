// Chrome trace_event JSON exporter for the trace bus.
//
// Emits the {"traceEvents":[...]} object form understood by Perfetto and
// chrome://tracing: "i" instants, "X" complete spans with dur, and "M"
// metadata records naming processes (hosts) and threads (lanes).
// Timestamps are simulated microseconds; events are stable-sorted by ts,
// because a span is recorded when it ends but stamped with its begin.
#pragma once

#include <ostream>

#include "obs/trace.hpp"

namespace nowlb::obs {

/// Write the whole bus as Chrome trace_event JSON.
void write_chrome_trace(std::ostream& out, const TraceBus& bus);

}  // namespace nowlb::obs
