// Structured trace bus: the flight recorder's event stream.
//
// Emitters (the sim engine, the reliable transport, the master/slave
// protocol) append typed events stamped with *simulated* time, host and
// lane. Appending is a synchronous in-memory push at zero virtual cost —
// attaching a bus never perturbs the simulation clock, which is the
// property the bit-identical-trace acceptance tests pin down.
//
// Lanes map onto Chrome trace_event identity: host -> pid, lane -> tid.
// Protocol agents use their sim pid as the lane; name_lane() attaches the
// human-readable name ("master", "slave3") the exporter emits as
// thread_name metadata, which is how rank is recovered in Perfetto.
//
// Event names, categories and arg keys must be string literals (or other
// static storage): events store the pointers, not copies, so the hot path
// never allocates for them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace nowlb::obs {

/// One optional numeric event argument (key must be a string literal).
struct TraceArg {
  const char* key = nullptr;
  double value = 0;
};

struct TraceEvent {
  Time t = 0;         // simulated time of the event (begin, for spans)
  Time dur = 0;       // span duration (complete events only)
  int host = 0;       // Chrome pid
  int lane = 0;       // Chrome tid (protocol agents: their sim pid)
  enum class Phase : std::uint8_t { kInstant, kComplete } phase =
      Phase::kInstant;
  const char* cat = "";
  const char* name = "";
  TraceArg a0, a1, a2;
};

class TraceBus {
 public:
  // The two appends are defined out of line: the simulator calls them from
  // its per-message path, and an append inlined at each call site would
  // grow that path for the bare runs that record nothing.

  /// Point event at simulated time `t`.
  void instant(Time t, int host, int lane, const char* cat,
               const char* name, TraceArg a0 = {}, TraceArg a1 = {},
               TraceArg a2 = {});

  /// Span covering [begin, end] of simulated time.
  void complete(Time begin, Time end, int host, int lane,
                const char* cat, const char* name, TraceArg a0 = {},
                TraceArg a1 = {}, TraceArg a2 = {});

  /// Name a (host, lane) pair for the exporter's thread_name metadata.
  /// Last writer wins; called once per process at spawn.
  void name_lane(int host, int lane, std::string name) {
    lanes_[{host, lane}] = std::move(name);
  }
  void name_host(int host, std::string name) {
    hosts_[host] = std::move(name);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::map<std::pair<int, int>, std::string>& lanes() const {
    return lanes_;
  }
  const std::map<int, std::string>& hosts() const { return hosts_; }

  /// Events discarded after the capacity cap was hit (flight-recorder
  /// bound: one runaway run must not exhaust memory).
  std::size_t dropped() const { return dropped_; }
  void set_capacity(std::size_t cap) { capacity_ = cap; }

  void clear() {
    events_.clear();
    lanes_.clear();
    hosts_.clear();
    dropped_ = 0;
  }

 private:
  void push(TraceEvent e) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::vector<TraceEvent> events_;
  std::map<std::pair<int, int>, std::string> lanes_;
  std::map<int, std::string> hosts_;
  std::size_t capacity_ = std::size_t{1} << 22;
  std::size_t dropped_ = 0;
};

}  // namespace nowlb::obs
