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

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/// One run's events in push order, in an append-only store of fixed
/// blocks of kBlockEvents events (96 KiB, under glibc's default 128 KiB
/// mmap threshold, so a block comes from the heap and a freed one is the
/// right size for the next run's). A new block is left uninitialised and
/// each event is written once, into its slot; an append never copies an
/// earlier event, and events never move. clear() keeps the blocks for the
/// next run. Reads look like a vector's: size(), empty(), operator[] and
/// range-for.
class TraceEvents {
 public:
  static constexpr std::size_t kBlockEvents = 1024;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    const_iterator() = default;
    reference operator*() const { return (*events_)[i_]; }
    pointer operator->() const { return &(*events_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++i_;
      return was;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class TraceEvents;
    const_iterator(const TraceEvents* events, std::size_t i)
        : events_(events), i_(i) {}
    const TraceEvents* events_ = nullptr;
    std::size_t i_ = 0;
  };

  TraceEvents() = default;
  TraceEvents(const TraceEvents&) = delete;
  TraceEvents& operator=(const TraceEvents&) = delete;
  ~TraceEvents();

  std::size_t size() const {
    return base_ + static_cast<std::size_t>(next_ - head_);
  }
  bool empty() const { return size() == 0; }
  const TraceEvent& operator[](std::size_t i) const {
    return blocks_[i / kBlockEvents][i % kBlockEvents];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// The next free slot, uninitialised, for the caller to construct one
  /// event in; nullptr, counted in dropped(), once the store holds as many
  /// events as the capacity cap allows.
  TraceEvent* claim() { return next_ != stop_ ? next_++ : claim_slow(); }

  void set_capacity(std::size_t cap);
  std::size_t dropped() const { return dropped_; }

  /// Empty the store; its blocks stay allocated for the next run.
  void clear() {
    base_ = 0;
    head_ = next_ = stop_ = nullptr;
    dropped_ = 0;
  }

 private:
  TraceEvent* claim_slow();
  /// End of the writable part of the current block: its end, or the
  /// capacity cap's slot if that comes first.
  TraceEvent* stop_for_cap() const;

  std::vector<TraceEvent*> blocks_;  // owned, kBlockEvents slots each
  std::size_t base_ = 0;  // events in the full blocks before head_
  TraceEvent* head_ = nullptr;  // the current block, or none yet
  TraceEvent* next_ = nullptr;  // its next free slot
  TraceEvent* stop_ = nullptr;  // claim() takes its slow path here
  std::size_t capacity_ = std::size_t{1} << 22;
  std::size_t dropped_ = 0;
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

  const TraceEvents& events() const { return events_; }
  const std::map<std::pair<int, int>, std::string>& lanes() const {
    return lanes_;
  }
  const std::map<int, std::string>& hosts() const { return hosts_; }

  /// Events discarded after the capacity cap was hit (flight-recorder
  /// bound: one runaway run must not exhaust memory).
  std::size_t dropped() const { return events_.dropped(); }
  void set_capacity(std::size_t cap) { events_.set_capacity(cap); }

  void clear() {
    events_.clear();
    lanes_.clear();
    hosts_.clear();
  }

 private:
  TraceEvents events_;
  std::map<std::pair<int, int>, std::string> lanes_;
  std::map<int, std::string> hosts_;
};

}  // namespace nowlb::obs
