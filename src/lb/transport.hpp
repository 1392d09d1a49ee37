// Reliable transport for the load-balancing protocol (DESIGN.md §9).
//
// Wraps the runtime's report/instruction/move traffic in a per-(peer, tag)
// sequenced channel: every message carries a sequence number, the receiver
// acknowledges each one, and the sender retransmits on a timeout with
// exponential backoff until acked or out of retries. The receiver delivers
// in order, suppresses duplicates (lossy-network dups and retransmit
// replays look identical) and holds reordered arrivals until the gap
// closes — so the protocol layer above sees exactly the classic perfect
// network semantics, on top of a lossy one.
//
// One Transport is owned per protocol agent (the master and each slave
// agent). It installs itself as the mailbox tap of its process, consuming
// acks and enveloped reliable-tag messages; everything else passes
// through untouched. Disabled (the default), it installs nothing and
// send() degrades to a plain ctx.send — zero behavioural footprint.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "lb/config.hpp"
#include "lb/events.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/task.hpp"

namespace nowlb::lb {

class Transport {
 public:
  /// Installs the mailbox tap (when enabled). `reliable_tags` is the set
  /// of tags to envelope/ack; `check` may be null.
  Transport(sim::Context& ctx, TransportConfig cfg,
            std::vector<sim::Tag> reliable_tags, EventSink* check);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Reliable send: envelopes, posts, and arms a retransmit timer. With
  /// the transport disabled this is exactly ctx.send. Sends towards a
  /// blackholed peer are silently discarded.
  sim::Task<> send(sim::Pid dst, sim::Tag tag, sim::Payload payload);

  /// Declare a peer dead: cancel every retransmit towards it, drop its
  /// held reordered messages, and swallow all its future arrivals.
  void blackhole(sim::Pid pid);
  bool blackholed(sim::Pid pid) const { return dead_.count(pid) > 0; }

  /// Block until every pending send is acked (or its retries exhausted).
  /// Call before an agent exits: destroying the transport cancels the
  /// retransmit timers, so an unacked-but-dropped final message would
  /// otherwise be lost forever and strand its receiver.
  sim::Task<> drain();
  bool has_pending() const;

 private:
  /// A per-direction channel is identified by (peer pid, message tag).
  struct Key {
    sim::Pid peer;
    sim::Tag tag;
    auto operator<=>(const Key&) const = default;
  };
  /// A reliable message on the wire: the sequence number, then the
  /// payload's length and flattened bytes. The sender borrows the payload
  /// and the envelope carries a copy of its segments, at offsets shifted
  /// past this 12-byte prefix; the receiver takes them back.
  template <class Payload = sim::Payload>
  struct Envelope {
    std::uint32_t seq = 0;
    Payload payload;
    template <class A> void fields(A& a) { a(seq, payload); }
  };
  /// An acknowledgement: the tag and sequence number it answers.
  struct Ack {
    std::int32_t tag = 0;
    std::uint32_t seq = 0;
    template <class A> void fields(A& a) { a(tag, seq); }
  };
  struct Pending {
    /// Application payload only; the envelope (seq prefix + length) is
    /// rebuilt byte-identically on retransmit, so the retained state is
    /// the payload instead of a full message copy.
    sim::Payload payload;
    int attempts = 0;
    sim::Engine::EventId timer;
  };

  bool on_message(sim::Message& m);  // the tap; true = consumed
  void post_raw(sim::Message m);     // network post, no CPU charge
  /// Frame a reliable message: seq-prefixed envelope around the payload.
  sim::Message make_envelope(sim::Pid dst, sim::Tag tag, std::uint32_t seq,
                             const sim::Payload& payload) const;
  void send_ack(sim::Pid dst, sim::Tag tag, std::uint32_t seq);
  void arm_timer(Key k, std::uint32_t seq);
  void on_timeout(Key k, std::uint32_t seq);
  /// Hand a stripped message to the application via an engine event:
  /// the resumed coroutine may destroy this transport, so the event
  /// captures only the mailbox (owned by the process, which outlives us)
  /// and the invariant set it reports the delivery to.
  void deliver_async(sim::Message m, std::uint32_t seq);
  void cancel_all_timers();
  bool reliable(sim::Tag tag) const;

  sim::Context& ctx_;
  TransportConfig cfg_;
  std::vector<sim::Tag> tags_;
  /// Owned here, not borrowed from the agent, which may move.
  Observers events_;
  /// Expires in the destructor so the process kill hook, which cannot be
  /// deregistered, becomes a no-op once the transport is gone.
  std::shared_ptr<bool> alive_;

  std::map<Key, std::uint32_t> next_send_seq_;
  std::map<Key, std::map<std::uint32_t, Pending>> pending_;
  std::map<Key, std::uint32_t> next_recv_seq_;
  std::map<Key, std::map<std::uint32_t, sim::Message>> held_;
  std::set<sim::Pid> dead_;
};

}  // namespace nowlb::lb
