#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "util/json.hpp"

namespace nowlb::obs {

namespace {

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "0";  // JSON has no Inf/NaN
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

/// Microsecond timestamp: integer when the nanosecond count divides evenly.
void write_ts(std::ostream& out, Time t) {
  if (t % kMicrosecond == 0) {
    out << t / kMicrosecond;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(t) / kMicrosecond);
    out << buf;
  }
}

void write_args(std::ostream& out, const TraceEvent& e) {
  out << "\"args\":{";
  bool first = true;
  for (const TraceArg* a : {&e.a0, &e.a1, &e.a2}) {
    if (!a->key) continue;
    if (!first) out << ',';
    first = false;
    write_json_string(out, a->key);
    out << ':';
    write_number(out, a->value);
  }
  out << '}';
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceBus& bus) {
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata first: process (host) and thread (lane) names.
  for (const auto& [host, name] : bus.hosts()) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << host
        << ",\"tid\":0,\"args\":{\"name\":";
    write_json_string(out, name);
    out << "}}";
  }
  for (const auto& [key, name] : bus.lanes()) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
        << ",\"tid\":" << key.second << ",\"args\":{\"name\":";
    write_json_string(out, name);
    out << "}}";
  }

  // Stable sort by begin time: a span is pushed when it closes, after
  // events that began later.
  const auto& events = bus.events();
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return events[a].t < events[b].t;
  });

  for (std::size_t idx : order) {
    const TraceEvent& e = events[idx];
    sep();
    out << "{\"name\":";
    write_json_string(out, e.name);
    out << ",\"cat\":";
    write_json_string(out, e.cat);
    out << ",\"ph\":\""
        << (e.phase == TraceEvent::Phase::kComplete ? 'X' : 'i')
        << "\",\"ts\":";
    write_ts(out, e.t);
    if (e.phase == TraceEvent::Phase::kComplete) {
      out << ",\"dur\":";
      write_ts(out, e.dur);
    } else {
      out << ",\"s\":\"t\"";  // instant scope: thread
    }
    out << ",\"pid\":" << e.host << ",\"tid\":" << e.lane << ',';
    write_args(out, e);
    out << '}';
  }

  out << "]}\n";
}

}  // namespace nowlb::obs
