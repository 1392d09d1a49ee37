#include "lb/transport.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lb/protocol.hpp"
#include "msg/serialize.hpp"
#include "sim/world.hpp"
#include "util/log.hpp"

namespace nowlb::lb {

namespace {

/// Initial retransmission timeout; comfortably above one round-trip (wire
/// latency + transmit + ack) under load. Each further retransmission of
/// one message doubles it.
constexpr sim::Time kRto = 20 * sim::kMillisecond;
/// Retransmissions before giving a message up for lost (the peer is
/// presumed dead; the failure detector is responsible for acting on it).
constexpr int kMaxRetries = 8;

}  // namespace

Transport::Transport(sim::Context& ctx, TransportConfig cfg,
                     std::vector<sim::Tag> reliable_tags, EventSink* check)
    : ctx_(ctx),
      cfg_(cfg),
      tags_(std::move(reliable_tags)),
      events_(ctx, check),
      alive_(std::make_shared<bool>(true)) {
  if (!cfg_.enabled) return;
  ctx_.process().mailbox().set_tap(
      [this](sim::Message& m) { return on_message(m); });
  // A crashed host stops transmitting: cancel every retransmit timer the
  // instant the process is killed. The weak_ptr guards the normal-exit
  // case where the transport is destroyed while the process lives on.
  ctx_.process().add_kill_hook(
      [this, alive = std::weak_ptr<bool>(alive_)] {
        if (!alive.expired()) cancel_all_timers();
      });
}

Transport::~Transport() {
  cancel_all_timers();
  if (cfg_.enabled && !ctx_.process().mailbox().closed()) {
    ctx_.process().mailbox().set_tap(nullptr);
  }
}

bool Transport::reliable(sim::Tag tag) const {
  return std::find(tags_.begin(), tags_.end(), tag) != tags_.end();
}

sim::Task<> Transport::send(sim::Pid dst, sim::Tag tag,
                            sim::Payload payload) {
  if (!cfg_.enabled) {
    co_await ctx_.send(dst, tag, std::move(payload));
    co_return;
  }
  if (blackholed(dst)) co_return;
  const Key k{dst, tag};
  const std::uint32_t seq = next_send_seq_[k]++;
  sim::Message m = make_envelope(dst, tag, seq, payload);
  // Charge the sender's software overhead like a plain send, then post
  // the envelope and keep only the payload for retransmission.
  co_await ctx_.compute(ctx_.world().config().msg.send_overhead);
  Pending& p = pending_[k][seq];
  p.payload = std::move(payload);
  events_.emit(TransportEvent{.kind = TransportEvent::kSent});
  post_raw(std::move(m));
  arm_timer(k, seq);
}

sim::Message Transport::make_envelope(sim::Pid dst, sim::Tag tag,
                                      std::uint32_t seq,
                                      const sim::Payload& payload) const {
  sim::Message m;
  m.src = ctx_.pid();
  m.dst = dst;
  m.tag = tag;
  m.payload = msg::encode(Envelope<const sim::Payload&>{seq, payload});
  return m;
}

void Transport::post_raw(sim::Message m) {
  sim::World& w = ctx_.world();
  sim::Process& target = w.process(m.dst);
  w.network().post(std::move(m), ctx_.process().host().id(), target,
                   target.host().id());
}

void Transport::send_ack(sim::Pid dst, sim::Tag tag, std::uint32_t seq) {
  sim::Message ack;
  ack.src = ctx_.pid();
  ack.dst = dst;
  ack.tag = kTagAck;
  ack.payload = msg::encode(Ack{tag, seq});
  events_.emit(TransportEvent{
      .kind = TransportEvent::kAck, .peer = dst, .tag = tag, .seq = seq});
  // Acks are NIC-level: no software overhead, fired straight from the
  // delivery event. They ride the same lossy network as everything else;
  // a lost ack is covered by the peer's retransmit.
  post_raw(std::move(ack));
}

void Transport::arm_timer(Key k, std::uint32_t seq) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  auto jt = it->second.find(seq);
  if (jt == it->second.end()) return;
  // Each retransmission of one message doubles its timeout.
  const double scale = std::pow(2.0, jt->second.attempts);
  const sim::Time delay =
      static_cast<sim::Time>(static_cast<double>(kRto) * scale);
  jt->second.timer = ctx_.world().engine().schedule_after(
      delay, [this, k, seq] { on_timeout(k, seq); });
}

void Transport::on_timeout(Key k, std::uint32_t seq) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  auto jt = it->second.find(seq);
  if (jt == it->second.end()) return;
  if (blackholed(k.peer)) {
    it->second.erase(jt);
    return;
  }
  Pending& p = jt->second;
  if (p.attempts >= kMaxRetries) {
    events_.emit(TransportEvent{.kind = TransportEvent::kGaveUp,
                                .peer = k.peer,
                                .tag = k.tag,
                                .seq = seq});
    NOWLB_LOG(Debug, "lb.transport")
        << "pid " << ctx_.pid() << " gave up on tag " << k.tag << " seq "
        << seq << " -> pid " << k.peer;
    it->second.erase(jt);
    return;
  }
  ++p.attempts;
  events_.emit(TransportEvent{.kind = TransportEvent::kRetransmit,
                              .peer = k.peer,
                              .tag = k.tag,
                              .seq = seq,
                              .attempt = p.attempts});
  post_raw(make_envelope(k.peer, k.tag, seq, p.payload));
  arm_timer(k, seq);
}

bool Transport::on_message(sim::Message& m) {
  if (m.tag == kTagAck) {
    const auto ack = msg::decode<Ack>(m.payload);
    const Key k{m.src, ack.tag};
    auto it = pending_.find(k);
    if (it != pending_.end()) {
      auto jt = it->second.find(ack.seq);
      if (jt != it->second.end()) {
        ctx_.world().engine().cancel(jt->second.timer);
        it->second.erase(jt);
      }
    }
    return true;  // acks never reach the application
  }
  if (!reliable(m.tag)) return false;
  if (blackholed(m.src)) {
    events_.emit(
        TransportEvent{.kind = TransportEvent::kSwallowed, .peer = m.src});
    return true;
  }
  auto [seq, payload] = msg::decode<Envelope<>>(m.payload);
  // Ack every arrival, duplicates included: the first ack may have been
  // lost and the peer is still retransmitting.
  send_ack(m.src, m.tag, seq);
  const Key k{m.src, m.tag};
  std::uint32_t& expect = next_recv_seq_[k];
  if (seq < expect) {
    events_.emit(TransportEvent{.kind = TransportEvent::kDuplicate});
    return true;
  }
  sim::Message stripped;
  stripped.src = m.src;
  stripped.dst = m.dst;
  stripped.tag = m.tag;
  stripped.payload = std::move(payload);
  if (seq > expect) {
    // Gap: hold until the missing predecessors arrive (retransmission).
    if (held_[k].emplace(seq, std::move(stripped)).second) {
      events_.emit(TransportEvent{.kind = TransportEvent::kHeld});
    } else {
      events_.emit(TransportEvent{.kind = TransportEvent::kDuplicate});
    }
    return true;
  }
  deliver_async(std::move(stripped), seq);
  ++expect;
  auto ht = held_.find(k);
  if (ht != held_.end()) {
    auto& gaps = ht->second;
    for (auto g = gaps.find(expect); g != gaps.end();
         g = gaps.find(expect)) {
      deliver_async(std::move(g->second), expect);
      gaps.erase(g);
      ++expect;
    }
  }
  return true;
}

void Transport::deliver_async(sim::Message m, std::uint32_t seq) {
  sim::Mailbox* mb = &ctx_.process().mailbox();
  EventSink* check = events_.check();
  const Delivered ev{m.src, m.dst, m.tag, seq};
  const sim::Time t = ctx_.now();
  ctx_.world().engine().schedule_at(
      t, [mb, check, ev, t, msg = std::move(m)]() mutable {
        if (check) check->on(t, ev);
        mb->deliver(std::move(msg));
      });
}

bool Transport::has_pending() const {
  for (const auto& [k, seqs] : pending_) {
    if (!seqs.empty()) return true;
  }
  return false;
}

sim::Task<> Transport::drain() {
  if (!cfg_.enabled) co_return;
  // Acks are consumed by the tap, not this coroutine, so polling suffices;
  // the retransmit timers keep firing while we sleep. Bounded: every
  // pending entry is erased on ack, blackhole, or retry exhaustion.
  const sim::Time t0 = ctx_.now();
  const bool waited = has_pending();
  while (has_pending()) co_await ctx_.sleep(kRto / 2);
  if (waited) events_.emit(Drained{t0});
}

void Transport::cancel_all_timers() {
  sim::Engine& eng = ctx_.world().engine();
  for (auto& [k, seqs] : pending_) {
    for (auto& [seq, p] : seqs) eng.cancel(p.timer);
  }
  pending_.clear();
}

void Transport::blackhole(sim::Pid pid) {
  if (!dead_.insert(pid).second) return;
  events_.emit(TransportEvent{.kind = TransportEvent::kBlackhole, .peer = pid});
  sim::Engine& eng = ctx_.world().engine();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.peer == pid) {
      for (auto& [seq, p] : it->second) eng.cancel(p.timer);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->first.peer == pid) {
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace nowlb::lb
