// Per-process message queue with tag/source-selective receive.
//
// A process has a single logical thread, so at most one receive is pending
// at a time; the mailbox either satisfies it from the queue or parks the
// continuation until a matching message is delivered.
//
// Two extension points support the fault-tolerant runtime (DESIGN.md §9):
// a *tap* — a filter that sees every pushed message before it becomes
// visible and may consume it (reliable-transport envelope processing) —
// and *close*, which models a crashed process: arrivals are counted and
// discarded and any parked receive is forgotten.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "sim/message.hpp"

namespace nowlb::sim {

class Mailbox {
 public:
  /// Message filter: return true to consume (the message is not queued).
  /// May rewrite the message in place before returning false.
  using Tap = std::function<bool(Message&)>;

  /// Deliver a message. Runs the tap first; if it passes, behaves like
  /// deliver(). Discards (counting) when the mailbox is closed.
  void push(Message m);

  /// Deliver bypassing the tap: satisfy the pending receive or queue.
  void deliver(Message m);

  /// Pop the oldest message matching (tag, src); kAnyTag/kAnyPid wildcard.
  std::optional<Message> try_pop(Tag tag, Pid src);

  /// Park a receive. Precondition: no receive already pending.
  void set_pending(Tag tag, Pid src, std::function<void(Message)> handler);

  /// Forget the parked receive, if any (receive timeout, crashed owner).
  void cancel_pending();

  /// Install (or clear, with nullptr) the tap. Messages already queued are
  /// re-filtered through the new tap, preserving their order: a transport
  /// installed after messages arrived must still see their envelopes.
  void set_tap(Tap tap);

  /// Crash the owner: drop the queue and pending receive, discard (and
  /// count) everything delivered from now on.
  void close();
  bool closed() const { return closed_; }
  std::uint64_t discarded() const { return discarded_; }

  bool has_pending() const { return waiting_; }
  std::size_t queued() const { return q_.size(); }
  /// The oldest queued message. Precondition: queued() > 0.
  const Message& front() const { return q_.front(); }

 private:
  static bool matches(const Message& m, Tag tag, Pid src) {
    return (tag == kAnyTag || m.tag == tag) && (src == kAnyPid || m.src == src);
  }

  std::deque<Message> q_;
  bool waiting_ = false;
  bool closed_ = false;
  Tag want_tag_ = kAnyTag;
  Pid want_src_ = kAnyPid;
  std::function<void(Message)> handler_;
  Tap tap_;
  std::uint64_t discarded_ = 0;
};

}  // namespace nowlb::sim
