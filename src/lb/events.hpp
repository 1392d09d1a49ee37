// The lb protocol-event stream: one struct per event the master, the
// slave agents and the reliable transport report.
//
// Each event is emitted once, where it happens, to at most two
// subscribers: the flight recorder (lb/record.cpp), which writes every
// trace event, metric and decision-ledger record lb produces, and
// LbConfig::check, src/check's InvariantSet. Reference members point into
// the emitter's state and are valid only during the call. Subscribers
// run synchronously at zero virtual cost, so a run dispatches the same
// engine events with or without them.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "lb/plan.hpp"
#include "lb/protocol.hpp"
#include "obs/ledger.hpp"
#include "sim/context.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace nowlb::lb {

// ---- master (lb/master.cpp) ----

/// A status report arrived, stamped at arrival even when it is stashed
/// for the next collection.
struct ReportArrived { int rank, round; };
/// One report collection completed: reports[r] is valid where mask[r] is
/// set.
struct ReportsCollected {
  int round;
  const std::vector<StatusReport>& reports;
  const std::vector<bool>& mask;
};
/// An informative window updated a rank's rate estimate.
struct RateFiltered { int rank; double raw, filtered; };
/// A report collection closed with this outcome; exactly one per
/// collection. `decision` is null for a pipelined phase's final collection
/// and for the last collection of a done-flag run.
struct RoundClosed {
  int round;  // MasterStats::rounds
  obs::Gate gate;
  const char* reason;
  const std::vector<int>& remaining;
  const Decision* decision;
  const std::vector<double>& raw_rates;
  const std::vector<double>& rates;
  double period_s;
};
/// Instructions put on the wire towards one rank.
struct InstructionsSent {
  int rank;
  const Instructions& ins;
  int decision_round;  // ledger round they carry (0: pipeline priming)
};
/// Master-side round latency: reports collected at `start`, instructions
/// sent now.
struct RoundTimed { sim::Time start; int round; };
/// The master evicted a rank after a missed heartbeat deadline.
struct RankEvicted { int rank; };
/// Orphaned unit ids of an evicted rank were assigned to `rank`.
struct OrphansAssigned { int rank; const std::vector<std::int32_t>& ids; };

// ---- slave agent (lb/slave.cpp) ----

/// A status report closing the window opened at `window_start`, of which
/// `blocked` was spent waiting on application communication.
struct ReportSent {
  int rank;
  const StatusReport& report;
  sim::Time window_start, blocked;
};
/// Instructions applied by a slave (normal, polled or pre-paid path).
struct InstructionsApplied { int rank; const Instructions& ins; };
/// Orphaned unit ids reconstructed and owned; the adoption began at
/// `start`.
struct Adopted {
  int rank;
  const std::vector<std::int32_t>& ids;
  sim::Time start;
};
/// A runtime wait that began at `start` and took nonzero time.
struct Blocked { int rank, round; sim::Time start; };
/// A transfer's send half: `actual` of `ordered` units packed for
/// `to_rank`, about to go on the wire.
struct UnitsPacked { int from_rank, to_rank, ordered, actual; };
/// The packed transfer begun at `start` is on the wire. `round` is the
/// wire round of the instructions that ordered it.
struct MoveSent { int rank, to_rank, round; sim::Time start; };
/// A transfer's receive half: `actual` units integrated, begun at `start`.
struct UnitsUnpacked {
  int rank, from_rank, ordered, actual;
  int round;  // wire round of the ordering instructions
  sim::Time start;
};

// ---- reliable transport (lb/transport.cpp) ----

/// One transport occurrence on the channel (peer, tag).
struct TransportEvent {
  enum Kind : std::uint8_t {
    kSent, kAck, kRetransmit, kGaveUp, kDuplicate, kHeld, kSwallowed,
    kBlackhole
  };
  Kind kind;
  sim::Pid peer = 0;
  int tag = 0;
  std::uint32_t seq = 0;
  int attempt = 0;  // retransmissions so far (kRetransmit)
};
/// (src, tag, seq) was handed to dst's application, in order.
struct Delivered { sim::Pid src, dst; int tag; std::uint32_t seq; };
/// A transport that had unacked sends at `start` drained them.
struct Drained { sim::Time start; };

using Event =
    std::variant<ReportArrived, ReportsCollected, RateFiltered, RoundClosed,
                 InstructionsSent, RoundTimed, RankEvicted, OrphansAssigned,
                 ReportSent, InstructionsApplied, Adopted, Blocked,
                 UnitsPacked, MoveSent, UnitsUnpacked, TransportEvent,
                 Delivered, Drained>;

/// A subscriber to the stream.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on(sim::Time t, const Event& ev) = 0;
};

/// Whether any invariant checker reads the event; only those reach
/// LbConfig::check.
template <class E>
constexpr bool checked(const E&) { return true; }
constexpr bool checked(const ReportArrived&) { return false; }
constexpr bool checked(const RateFiltered&) { return false; }
constexpr bool checked(const RoundTimed&) { return false; }
constexpr bool checked(const Blocked&) { return false; }
constexpr bool checked(const MoveSent&) { return false; }
constexpr bool checked(const Drained&) { return false; }
constexpr bool checked(const TransportEvent&) { return false; }

/// One agent's subscribers: a recorder when the world has a flight
/// recorder hub attached, and the invariant set.
class Observers {
 public:
  Observers(sim::Context& ctx, EventSink* check);

  /// Report `ev` at the current virtual time.
  template <class E>
  void emit(const E& ev) {
    const bool to_check = check_ != nullptr && checked(ev);
    if (recorder_ == nullptr && !to_check) return;
    const Event e{ev};
    const sim::Time t = ctx_.now();
    if (recorder_ != nullptr) recorder_->on(t, e);
    if (to_check) check_->on(t, e);
  }

  EventSink* check() const { return check_; }

 private:
  sim::Context& ctx_;
  std::unique_ptr<EventSink> recorder_;
  EventSink* check_;
};

}  // namespace nowlb::lb
