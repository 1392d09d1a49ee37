// Runtime invariant layer: passive observers over the load-balancing
// protocol and the distributed-data layer.
//
// An Invariant sees every status report, instruction, work transfer and
// slice-ownership change of a run, stamped with virtual time, and records
// Failures into the owning InvariantSet instead of throwing — a fuzzing
// run wants every violated invariant of a seed, not just the first.
//
// The InvariantSet is the wiring hub. It subscribes to lb's protocol-event
// stream (lb/events.hpp) as LbConfig::check, so the lb runtime reports to
// it without any include of check/, and it is the data layer's
// SliceLedger. Every event arrives synchronously at zero virtual cost, so
// an instrumented run dispatches the exact same event sequence as a bare
// one.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "data/ownership.hpp"
#include "data/slice.hpp"
#include "lb/events.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nowlb::check {

/// One recorded invariant violation.
struct Failure {
  std::string checker;
  std::string message;
  sim::Time at = 0;
};

class InvariantSet;

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual const char* name() const = 0;

  /// One lb protocol event; a checker picks the ones it reads with
  /// std::get_if.
  virtual void on(sim::Time /*t*/, const lb::Event& /*ev*/) {}

  // ---- data layer (data/dist_array.hpp via SliceLedger) ----
  virtual void on_slice_added(sim::Time /*t*/, int /*rank*/,
                              data::SliceId /*id*/) {}
  virtual void on_slice_removed(sim::Time /*t*/, int /*rank*/,
                                data::SliceId /*id*/) {}

  // ---- lifecycle ----
  virtual void on_run_end(sim::Time /*t*/) {}

 protected:
  /// Record a violation (defined after InvariantSet).
  void fail(sim::Time t, std::string message);

 private:
  friend class InvariantSet;
  InvariantSet* set_ = nullptr;
};

class InvariantSet : public data::SliceLedger, public lb::EventSink {
 public:
  /// Observation-layer fault injection: corrupt the event stream fed to the
  /// checkers to prove the failure path fires (the simulated system itself
  /// stays correct). kSkipCredit drops one transfer's packed credit;
  /// kWrongRound mislabels one applied instruction's round.
  enum class Fault { kNone, kSkipCredit, kWrongRound };

  Invariant& add(std::unique_ptr<Invariant> checker) {
    checker->set_ = this;
    checkers_.push_back(std::move(checker));
    return *checkers_.back();
  }

  /// Stamp data-layer events (which carry no time) with this clock.
  void bind_clock(const sim::Engine* clock) { clock_ = clock; }

  void inject_fault(Fault f) { fault_ = f; }

  const std::vector<Failure>& failures() const { return failures_; }
  bool ok() const { return failures_.empty(); }

  void record(Failure f) {
    // Cap collection: one bad seed can violate an invariant per event.
    if (failures_.size() < kMaxFailures) failures_.push_back(std::move(f));
  }

  /// Multi-line human-readable failure summary.
  std::string report() const {
    std::string out;
    for (const Failure& f : failures_) {
      out += "  [" + f.checker + "] t=" +
             std::to_string(sim::to_seconds(f.at)) + "s: " + f.message + "\n";
    }
    return out;
  }

  // ---- lb::EventSink (LbConfig::check) ----
  void on(sim::Time t, const lb::Event& ev) override {
    if (fault_ != Fault::kNone && !fault_fired_ && inject(t, ev)) return;
    for (auto& c : checkers_) c->on(t, ev);
  }
  void on_run_end(sim::Time t) {
    for (auto& c : checkers_) c->on_run_end(t);
  }

  // ---- data::SliceLedger (installed via data::SliceLedgerScope) ----
  void on_slice_added(int rank, data::SliceId id) override {
    const sim::Time t = clock_ ? clock_->now() : 0;
    for (auto& c : checkers_) c->on_slice_added(t, rank, id);
  }
  void on_slice_removed(int rank, data::SliceId id) override {
    const sim::Time t = clock_ ? clock_->now() : 0;
    for (auto& c : checkers_) c->on_slice_removed(t, rank, id);
  }

 private:
  static constexpr std::size_t kMaxFailures = 64;

  /// Feed the checkers the armed fault's corruption of `ev` instead of
  /// `ev` itself; false when the fault does not target this event.
  bool inject(sim::Time t, const lb::Event& ev) {
    if (fault_ == Fault::kSkipCredit &&
        std::holds_alternative<lb::UnitsPacked>(ev)) {
      fault_fired_ = true;
      return true;  // the transfer's credit never reaches the checkers
    }
    const auto* applied = std::get_if<lb::InstructionsApplied>(&ev);
    if (fault_ != Fault::kWrongRound || applied == nullptr) return false;
    fault_fired_ = true;
    lb::Instructions wrong = applied->ins;
    // +2, not +1: a pre-paid instruction legitimately runs one round
    // ahead, so +1 could land inside the allowed window.
    wrong.round += 2;
    for (auto& c : checkers_) {
      c->on(t, lb::InstructionsApplied{applied->rank, wrong});
    }
    return true;
  }

  std::vector<std::unique_ptr<Invariant>> checkers_;
  std::vector<Failure> failures_;
  const sim::Engine* clock_ = nullptr;
  Fault fault_ = Fault::kNone;
  bool fault_fired_ = false;
};

inline void Invariant::fail(sim::Time t, std::string message) {
  if (set_ != nullptr) set_->record({name(), std::move(message), t});
}

}  // namespace nowlb::check
