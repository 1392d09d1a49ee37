#include "lb/slave.hpp"

#include <algorithm>

#include "sim/world.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace nowlb::lb {

using sim::Task;
using sim::Time;
using sim::to_seconds;

SlaveAgent::SlaveAgent(sim::Context& ctx, sim::Pid master, int rank,
                       std::vector<sim::Pid> slave_pids, const LbConfig& lb,
                       WorkOps ops, double first_window_units)
    : ctx_(ctx),
      master_(master),
      rank_(rank),
      slave_pids_(std::move(slave_pids)),
      lb_(lb),
      ops_(std::move(ops)),
      events_(ctx, lb.check),
      until_next_(std::max(1.0, first_window_units)) {
  NOWLB_CHECK(ops_.remaining && ops_.pack && ops_.unpack,
              "WorkOps must be fully populated");
  if (lb_.fault_tolerance()) {
    NOWLB_CHECK(ops_.inventory && ops_.adopt,
                "fault tolerance needs WorkOps inventory + adopt");
  }
  transport_ = std::make_unique<Transport>(
      ctx_, lb_.transport,
      std::vector<sim::Tag>{kTagReport, kTagInstr, kTagMove}, lb_.check);
}

void SlaveAgent::begin_phase() {
  phase_done_ = false;
  units_since_ = 0;
  app_blocked_accum_ = 0;
  window_start_ = ctx_.now();
}

Task<> SlaveAgent::send_report() {
  NOWLB_CHECK(!awaiting_instr_, "report already outstanding");
  ++round_;
  const Time t0 = ctx_.now();
  StatusReport rep;
  rep.round = round_;
  rep.units_done = units_since_;
  rep.elapsed_s = to_seconds(
      std::max<Time>(0, t0 - window_start_ - app_blocked_accum_));
  const Time window_blocked = app_blocked_accum_;
  app_blocked_accum_ = 0;
  // Count queued incoming transfers (at their ordered size) so in-flight
  // units are never under-counted: the reported total can only overstate,
  // so the master can never end a phase while work is still moving.
  // Blocking here to take actual delivery would put the donor's round lag
  // on this slave's critical path.
  rep.remaining = ops_.remaining() + pending_units();
  rep.lb_blocked_s = to_seconds(last_overhead_);
  rep.move_time_s = to_seconds(move_time_accum_);
  rep.moved_units = moved_units_accum_;
  rep.done = final_ ? 1 : 0;
  if (lb_.fault_tolerance()) {
    rep.ft = 1;
    rep.inventory = ops_.inventory();
  }
  move_time_accum_ = 0;
  moved_units_accum_ = 0;
  NOWLB_LOG(Debug, "lb") << "rank " << rank_ << " report r" << round_
                         << " units=" << rep.units_done << " elapsed="
                         << rep.elapsed_s << " blocked="
                         << to_seconds(window_blocked) << " remaining="
                         << rep.remaining;
  events_.emit(ReportSent{rank_, rep, window_start_, window_blocked});
  co_await transport_->send(master_, kTagReport, msg::encode(rep));

  awaiting_instr_ = true;
  units_since_ = 0;
  window_start_ = ctx_.now();
  overhead_accum_ = ctx_.now() - t0;  // send cost; instr handling adds later

  if (prepaid_round_ == round_) {
    // The matching (pre-sent) instructions were already applied by a
    // wildcard receive; this round is complete.
    prepaid_round_ = 0;
    awaiting_instr_ = false;
  }
}

Task<> SlaveAgent::handle_instr(const Instructions& ins) {
  NOWLB_CHECK(awaiting_instr_, "instructions with no outstanding report");
  NOWLB_CHECK(ins.round == round_, "slave rank " << rank_ << " got round "
                                                 << ins.round << ", expected "
                                                 << round_);
  awaiting_instr_ = false;
  co_await apply_instr_body(ins);
}

Task<> SlaveAgent::apply_instr_body(const Instructions& ins) {
  applying_round_ = ins.round;
  events_.emit(InstructionsApplied{rank_, ins});
  if (ins.ft && (!ins.evicted.empty() || !ins.adopt.empty())) {
    co_await handle_ft(ins);
  }
  if (!ins.orders.empty()) {
    co_await apply_moves(ins.orders);
  }
  phase_done_ = ins.phase_done != 0;
  until_next_ = ins.units_until_next;
  last_overhead_ = overhead_accum_;
  // A phase_done can be the last thing this agent ever applies: if the app
  // body exits its phase loop and destroys us, unacked sends (the final
  // report the master is collecting, a move a peer waits on) would lose
  // their retransmit timers. Settle them while still alive; acks are
  // consumed by the peer's tap, so this cannot deadlock cross-slave.
  if (phase_done_) co_await transport_->drain();
}

Task<> SlaveAgent::handle_ft(const Instructions& ins) {
  for (const std::int32_t dead_rank : ins.evicted) {
    NOWLB_CHECK(dead_rank != rank_, "rank " << rank_ << " told of its own "
                                            << "eviction");
    const sim::Pid dead = pid_of(dead_rank);
    transport_->blackhole(dead);
    // Drop in-flight moves involving the dead peer: ordered receives will
    // never arrive, and a stale message from it must not be integrated
    // (the master reassigns those units from the census).
    std::erase_if(pending_recvs_, [&](const PendingRecv& p) {
      return p.order.peer_rank == dead_rank;
    });
    std::erase_if(stashed_moves_,
                  [&](const sim::Message& m) { return m.src == dead; });
    NOWLB_LOG(Info, "lb") << "rank " << rank_ << " notified: rank "
                          << dead_rank << " evicted";
  }
  if (!ins.evicted.empty()) {
    // Settle surviving in-flight moves so the census carried by the next
    // report counts every unit exactly once, nowhere twice, none in
    // flight.
    co_await drain_pending();
  }
  if (!ins.adopt.empty()) {
    const sim::Time t0 = ctx_.now();
    co_await ops_.adopt(ins.adopt);
    events_.emit(Adopted{rank_, ins.adopt, t0});
    move_time_accum_ += ctx_.now() - t0;
    NOWLB_LOG(Info, "lb") << "rank " << rank_ << " adopted "
                          << ins.adopt.size() << " orphaned units";
  }
}

Task<> SlaveAgent::hook() {
  if (!balancing()) co_return;
  // Opportunistically integrate moved work that has already arrived.
  if (!pending_recvs_.empty()) co_await poll_pending();

  if (awaiting_instr_) {
    if (held_instr_) {
      co_await handle_instr(co_await recv_instr());
    } else {
      NOWLB_CHECK(lb_.pipelined, "a synchronous report is answered at once");
      // Poll; keep computing if instructions haven't arrived.
      if (auto m = ctx_.try_recv(kTagInstr, master_)) {
        const Time t0 = ctx_.now();
        co_await ctx_.compute(ctx_.world().config().msg.recv_overhead);
        overhead_accum_ += ctx_.now() - t0;
        co_await handle_instr(msg::decode<Instructions>(m->payload));
      }
    }
  }
  if (!awaiting_instr_ && balance_due()) {
    co_await send_report();
    if (!lb_.pipelined) {
      const Time t0 = ctx_.now();
      Instructions ins = co_await recv_instr();
      overhead_accum_ += ctx_.now() - t0;
      co_await handle_instr(ins);
    }
  }
}

Task<Instructions> SlaveAgent::recv_instr() {
  if (held_instr_) {
    Instructions ins = std::move(*held_instr_);
    held_instr_.reset();
    co_return ins;
  }
  sim::Message m = co_await ctx_.recv(kTagInstr, master_);
  co_return msg::decode<Instructions>(m.payload);
}

Task<> SlaveAgent::drain() {
  // The phase can end inside hook() (a synchronous balance on the phase's
  // last unit gets phase_done as its reply); a report sent past that point
  // would never be answered. Without a master no work can arrive, so the
  // local work is the phase.
  if (!balancing()) phase_done_ = true;
  if (phase_done_) co_return;
  // Out of local work. Incoming transfers are the most likely source of
  // more; block on those first.
  if (!pending_recvs_.empty()) {
    const std::size_t before = pending_recvs_.size();
    co_await recv_one_pending();
    const bool stalled = lb_.fault_tolerance() &&
                         pending_recvs_.size() == before && !phase_done_;
    if (!stalled) co_return;
    // The bounded fault-tolerant wait timed out: nothing arrived at all, so
    // the donor may be dead and the master mid-collection, waiting for us.
    // Fall through to a report (`remaining` counts the pending orders) so
    // the master sees this rank alive and can evict the real crash — the
    // eviction notice then rides the answering instructions.
  }
  if (!awaiting_instr_) {
    co_await send_report();
    // send_report may have consumed a held early instruction already.
    if (!awaiting_instr_) co_return;
  }
  // The wait here is idleness caused by imbalance, not interaction
  // overhead or computation — excluded from both measurements.
  const Time w0 = ctx_.now();
  Instructions ins = co_await recv_instr();
  note_blocked_span(w0);
  co_await handle_instr(ins);
}

Task<> SlaveAgent::finalize() {
  if (!balancing()) co_return;
  // Settle the outstanding instruction: in done-flag mode the master
  // answers every non-final report, and its orders may have peers blocked
  // on transfers from us.
  if (awaiting_instr_) {
    Instructions ins = co_await recv_instr();
    co_await handle_instr(ins);
  }
  co_await drain_pending();
  NOWLB_CHECK(prepaid_round_ == 0, "pre-paid round pending at finalize");
  NOWLB_CHECK(ops_.remaining() == 0,
              "finalize with " << ops_.remaining() << " active units");
  final_ = true;
  co_await send_report();
  awaiting_instr_ = false;  // the master never answers a final report
  // Retransmit the final report until acked: returning tears the transport
  // down, and a dropped done-flag would leave the master collecting forever.
  co_await transport_->drain();
}

void SlaveAgent::note_blocked_span(sim::Time w0) {
  const Time now = ctx_.now();
  app_blocked_accum_ += now - w0;
  if (now > w0) events_.emit(Blocked{rank_, round_, w0});
}

Task<> SlaveAgent::integrate_move(const MoveOrder& order, std::int32_t round,
                                  sim::Message m) {
  const Time t0 = ctx_.now();
  co_await ctx_.compute(ctx_.world().config().msg.recv_overhead);
  const int actual =
      co_await ops_.unpack(std::move(m.payload), order.peer_rank);
  moved_units_accum_ += actual;
  move_time_accum_ += ctx_.now() - t0;
  events_.emit(UnitsUnpacked{rank_, order.peer_rank, order.count, actual,
                             round, t0});
  NOWLB_LOG(Debug, "lb") << "rank " << rank_ << " received " << actual
                         << " units from rank " << order.peer_rank;
}

std::optional<sim::Message> SlaveAgent::take_stashed(sim::Pid src) {
  for (std::size_t i = 0; i < stashed_moves_.size(); ++i) {
    if (stashed_moves_[i].src == src) {
      sim::Message m = std::move(stashed_moves_[i]);
      stashed_moves_.erase(stashed_moves_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      return m;
    }
  }
  return std::nullopt;
}

bool SlaveAgent::first_for_peer(std::size_t index) const {
  for (std::size_t j = 0; j < index; ++j) {
    if (pending_recvs_[j].order.peer_rank ==
        pending_recvs_[index].order.peer_rank) {
      return false;
    }
  }
  return true;
}

Task<> SlaveAgent::accept_move(sim::Message m) {
  NOWLB_CHECK(m.tag == kTagMove, "accept_move on tag " << m.tag);
  for (std::size_t i = 0; i < pending_recvs_.size(); ++i) {
    if (pid_of(pending_recvs_[i].order.peer_rank) == m.src &&
        first_for_peer(i)) {
      const PendingRecv p = pending_recvs_[i];
      pending_recvs_.erase(pending_recvs_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      co_await integrate_move(p.order, p.round, std::move(m));
      co_return;
    }
  }
  // Order not yet known (our instructions are still in flight); hold the
  // message until they arrive.
  stashed_moves_.push_back(std::move(m));
}

Task<> SlaveAgent::accept_runtime(sim::Message m) {
  NOWLB_CHECK(balancing(), "runtime message without balancer");
  if (m.tag == kTagMove) {
    co_await accept_move(std::move(m));
    co_return;
  }
  NOWLB_CHECK(m.tag == kTagInstr, "accept_runtime on tag " << m.tag);
  Instructions ins = msg::decode<Instructions>(m.payload);
  if (!awaiting_instr_) {
    // A pipelined master pre-sends instructions; a wildcard receive can
    // pick one up before the matching report went out. Apply it now — its
    // orders may be exactly what unblocks this slave (and peers waiting on
    // our transfers) — and let the upcoming report complete the round.
    NOWLB_CHECK(ins.round == round_ + 1,
                "early instructions for round " << ins.round << ", at round "
                                                << round_);
    NOWLB_CHECK(!ins.phase_done, "pre-sent instructions cannot end a phase");
    NOWLB_CHECK(prepaid_round_ == 0, "two pre-paid instruction rounds");
    prepaid_round_ = ins.round;
    co_await apply_instr_body(ins);
    co_return;
  }
  co_await handle_instr(ins);
}

Task<> SlaveAgent::recv_one_pending() {
  NOWLB_CHECK(!pending_recvs_.empty());
  if (lb_.fault_tolerance()) {
    // Under a heartbeat regime a blocking move receive must stay
    // interruptible: the sender may have crashed, and the order that would
    // never be satisfied is erased by the eviction notice riding the next
    // instructions. Block on any runtime message and dispatch — a move
    // integrates (for whichever order it matches), an instruction applies.
    // The wait is bounded: if nothing at all arrives (a dead donor sends
    // nothing, and the master sends nothing mid-collection because it is
    // waiting for *us*), give up and let drain() fall through to a report
    // so the master can tell a blocked-but-live rank from a crashed one.
    const std::size_t before = pending_recvs_.size();
    if (auto stashed =
            take_stashed(pid_of(pending_recvs_.front().order.peer_rank))) {
      const PendingRecv p = pending_recvs_.front();
      pending_recvs_.erase(pending_recvs_.begin());
      co_await integrate_move(p.order, p.round, std::move(*stashed));
      co_return;
    }
    const Time deadline = ctx_.now() + lb_.heartbeat_timeout / 4;
    while (pending_recvs_.size() == before) {
      const Time w0 = ctx_.now();
      // The deadline applies even when a phase_done is already held: a
      // pre-sent phase_done can race a crash, leaving this rank waiting on
      // a settling move whose donor is dead (the master, mid final
      // collection, is in turn waiting for our final report).
      std::optional<sim::Message> m =
          co_await ctx_.recv_until(sim::kAnyTag, sim::kAnyPid, deadline);
      note_blocked_span(w0);
      if (!m) co_return;  // timed out; drain() falls through to a report
      if (m->tag == kTagInstr && !awaiting_instr_) {
        Instructions ins = msg::decode<Instructions>(m->payload);
        if (ins.phase_done) {
          // The master ended the phase off our previous report while an
          // empty settling transfer was still heading our way; this
          // phase_done answers the report we have not sent yet. Hold it
          // for recv_instr() and keep waiting for the move.
          NOWLB_CHECK(!held_instr_, "two held phase_done instructions");
          held_instr_ = std::move(ins);
          continue;
        }
      }
      co_await accept_runtime(std::move(*m));
    }
    co_return;
  }
  const PendingRecv p = pending_recvs_.front();
  pending_recvs_.erase(pending_recvs_.begin());
  if (auto stashed = take_stashed(pid_of(p.order.peer_rank))) {
    co_await integrate_move(p.order, p.round, std::move(*stashed));
    co_return;
  }
  // recv_raw completes at message arrival; the wait until then is round
  // skew / sender lag — neither movement cost nor compute time, so it is
  // excluded from both the move-cost measurement and the rate window.
  const Time w0 = ctx_.now();
  sim::Message m = co_await ctx_.recv_raw(kTagMove, pid_of(p.order.peer_rank));
  note_blocked_span(w0);
  co_await integrate_move(p.order, p.round, std::move(m));
}

Task<> SlaveAgent::drain_pending() {
  while (!pending_recvs_.empty()) co_await recv_one_pending();
}

Task<> SlaveAgent::poll_pending() {
  // Integrate queued transfers whose messages have arrived. Per-peer FIFO
  // order is preserved: we only attempt the first queued order of each
  // peer per poll (earlier messages match earlier orders).
  std::size_t i = 0;
  while (i < pending_recvs_.size()) {
    if (!first_for_peer(i)) {
      ++i;
      continue;
    }
    const PendingRecv p = pending_recvs_[i];
    auto m = take_stashed(pid_of(p.order.peer_rank));
    if (!m) m = ctx_.try_recv(kTagMove, pid_of(p.order.peer_rank));
    if (!m) {
      ++i;
      continue;
    }
    pending_recvs_.erase(pending_recvs_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    co_await integrate_move(p.order, p.round, std::move(*m));
    // Restart the scan: the erase may have made another order for the
    // same peer the first one.
    i = 0;
  }
}

Task<> SlaveAgent::apply_moves(const std::vector<MoveOrder>& orders) {
  int send_total = 0;
  for (const auto& o : orders) {
    if (o.is_send) {
      send_total += o.count;
    } else {
      pending_recvs_.push_back({o, applying_round_});
    }
  }
  if (send_total > 0) {
    // If this rank cannot cover its ordered sends from what it holds, it is
    // an intermediate in a restricted-mode chain (Fig. 1b): take delivery
    // of the incoming side first, then forward.
    if (send_total > ops_.remaining() && !pending_recvs_.empty()) {
      co_await drain_pending();
    }
    for (const auto& o : orders) {
      if (!o.is_send) continue;
      const Time t0 = ctx_.now();
      const int want = std::min(o.count, ops_.remaining());
      auto [payload, actual] = co_await ops_.pack(want, o.peer_rank);
      NOWLB_CHECK(actual <= o.count);
      moved_units_accum_ += actual;
      events_.emit(UnitsPacked{rank_, o.peer_rank, o.count, actual});
      NOWLB_LOG(Debug, "lb") << "rank " << rank_ << " sends " << actual
                             << " units to rank " << o.peer_rank;
      co_await transport_->send(pid_of(o.peer_rank), kTagMove,
                                std::move(payload));
      move_time_accum_ += ctx_.now() - t0;
      events_.emit(MoveSent{rank_, o.peer_rank, applying_round_, t0});
    }
  }
  // Pick up whatever incoming transfers have already arrived.
  co_await poll_pending();
}

}  // namespace nowlb::lb
