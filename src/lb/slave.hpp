// SlaveAgent: the load-balancing runtime embedded in each slave process.
//
// The compiler-generated slave code drives it (§4.2, §4.5): the kernel
// reports completed work units via add_units() and calls hook() at every
// load-balancing hook. When a balance is due the agent sends a status
// report; in pipelined mode (Fig. 2b) the slave *keeps computing* and picks
// the master's instructions up at a later hook, so the master interaction
// never blocks computation; in synchronous mode (Fig. 2a) hook() blocks for
// the instructions. drain() is called when local work is exhausted: it
// blocks until instructions arrive (possibly delivering new work from a
// peer, possibly declaring the phase complete).
//
// Work movement is delegated to application-specific WorkOps — the
// gather/scatter (and pipeline catch-up) code a parallelizing compiler
// generates for the application's data layout.
//
// An agent built with no master pid (sim::kAnyPid) never balances: hook()
// and finalize() return at once and drain() ends the phase, so it sends
// nothing, schedules nothing and charges no CPU. The static program — the
// paper's plain parallel execution of the same loops — is the generated
// program with such an agent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "lb/config.hpp"
#include "lb/events.hpp"
#include "lb/protocol.hpp"
#include "lb/transport.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace nowlb::lb {

class SlaveAgent {
 public:
  /// Application-specific work-movement operations. pack/unpack are
  /// coroutines so they can charge CPU for gather/scatter and for pipeline
  /// catch-up computation on moved slices (§4.5).
  struct WorkOps {
    /// Active work units currently held.
    std::function<int()> remaining;
    /// Choose up to `count` units to hand to `peer_rank`, remove them from
    /// the local set, and move them into a payload. Returns (payload,
    /// actual units).
    std::function<sim::Task<std::pair<sim::Payload, int>>(int count,
                                                          int peer_rank)>
        pack;
    /// Integrate a received movement payload, taking its segments;
    /// returns units received.
    std::function<sim::Task<int>(sim::Payload payload, int peer_rank)>
        unpack;
    /// Global ids of the work units this rank currently owns — the
    /// inventory census fault recovery is built on. Required (with adopt)
    /// only under a heartbeat regime.
    std::function<std::vector<std::int32_t>()> inventory;
    /// Reconstruct orphaned units (from replicated / recomputable state)
    /// and take ownership of them (fault recovery adopt order).
    std::function<sim::Task<>(const std::vector<std::int32_t>& ids)> adopt;
  };

  SlaveAgent(sim::Context& ctx, sim::Pid master, int rank,
             std::vector<sim::Pid> slave_pids, const LbConfig& lb,
             WorkOps ops, double first_window_units);

  /// Start a new distributed-loop invocation: reset the measurement window.
  void begin_phase();

  /// Report `units` of work completed (called from the compute loop).
  void add_units(double units) { units_since_ += units; }

  /// Report time spent blocked on *application* communication (pipeline
  /// ghost receives, broadcast waits). Excluded from the rate window:
  /// otherwise the pipeline's lock-step masks per-slave speed differences
  /// — every rank would measure the slowest rank's rate and the balancer
  /// would never see the imbalance.
  void note_blocked(sim::Time d) { app_blocked_accum_ += d; }

  /// The per-hook check: cheap when nothing is pending. Sends a report
  /// when one is due; applies instructions when they have arrived.
  sim::Task<> hook();

  /// Out of local work: block until instructions arrive. Afterwards either
  /// remaining() > 0 (work was received), or another report/instruction
  /// round is needed, or phase_done() is set.
  sim::Task<> drain();

  /// True once the master declared the current phase complete.
  bool phase_done() const { return phase_done_; }

  /// Done-flag termination (Termination::kDoneFlags): settle any
  /// outstanding instructions (peers may depend on our ordered transfers),
  /// then send a final done-flagged report and stop participating.
  sim::Task<> finalize();

  /// Accept a kTagMove message the *application* received out-of-band
  /// (pipelined apps block on peer data receives with a wildcard tag, and
  /// a work transfer can arrive — or even supersede the awaited data).
  /// Integrates it immediately if its order is already known, otherwise
  /// holds it until the order arrives with the next instructions.
  sim::Task<> accept_move(sim::Message m);

  /// Dispatch any load-balancing runtime message (kTagMove or kTagInstr)
  /// that application code picked up during a wildcard receive.
  sim::Task<> accept_runtime(sim::Message m);

 private:
  /// One ordered incoming transfer, tagged with the wire round of the
  /// instructions that ordered it (the cz.move_recv span's round).
  struct PendingRecv {
    MoveOrder order;
    std::int32_t round = 0;
  };

  bool balancing() const { return master_ != sim::kAnyPid; }
  bool balance_due() const { return units_since_ >= until_next_; }
  sim::Task<> send_report();
  sim::Task<> handle_instr(const Instructions& ins);
  sim::Task<> apply_instr_body(const Instructions& ins);
  /// Apply the fault-tolerance trailer: blackhole evicted peers, drop
  /// undeliverable in-flight moves, settle survivor moves (so the next
  /// report's census is in-flight-free), adopt orphaned units.
  sim::Task<> handle_ft(const Instructions& ins);
  /// Execute the send half of the orders; queue the receive half.
  sim::Task<> apply_moves(const std::vector<MoveOrder>& orders);
  /// Charge overhead, unpack, and account one arrived transfer. `round` is
  /// the wire round whose instructions ordered it (cz.move_recv span).
  sim::Task<> integrate_move(const MoveOrder& order, std::int32_t round,
                             sim::Message m);
  /// Pop a stashed out-of-band move from `src`, if any.
  std::optional<sim::Message> take_stashed(sim::Pid src);
  /// True if `order` is the first queued receive for its peer (per-peer
  /// FIFO: earlier messages match earlier orders).
  bool first_for_peer(std::size_t index) const;
  /// Account a runtime wait that started at `w0` and ended now: add it to
  /// the blocked accumulator and report it (the cz.blocked span of the
  /// round graph).
  void note_blocked_span(sim::Time w0);
  /// Blocking receive of one queued incoming transfer.
  sim::Task<> recv_one_pending();
  /// Next instruction message: a held early phase_done if one exists (see
  /// recv_one_pending's fault-tolerant wildcard loop), else a mailbox recv.
  sim::Task<Instructions> recv_instr();
  /// Blocking receive of every queued incoming transfer (pre-report sync).
  sim::Task<> drain_pending();
  /// Non-blocking: integrate any queued transfers whose message arrived.
  sim::Task<> poll_pending();
  /// Ordered (upper-bound) unit count of queued incoming transfers.
  int pending_units() const {
    int n = 0;
    for (const auto& p : pending_recvs_) n += p.order.count;
    return n;
  }
  sim::Pid pid_of(int rank) const { return slave_pids_.at(rank); }

  sim::Context& ctx_;
  sim::Pid master_;
  int rank_;
  std::vector<sim::Pid> slave_pids_;
  LbConfig lb_;
  WorkOps ops_;
  Observers events_;
  std::unique_ptr<Transport> transport_;

  int round_ = 0;              // round of the last report sent
  bool awaiting_instr_ = false;
  /// Ordered incoming transfers not yet received. Receiving is
  /// opportunistic (polled at hooks) so computation overlaps with work
  /// movement; all entries are force-drained before the next report so
  /// reported `remaining` counts every unit exactly once.
  std::vector<PendingRecv> pending_recvs_;
  /// Out-of-band move messages accepted before their order was known.
  std::vector<sim::Message> stashed_moves_;
  /// A phase_done picked up by the fault-tolerant wildcard receive before
  /// the report it answers was sent; replayed by recv_instr().
  std::optional<Instructions> held_instr_;
  /// Round of a pipelined (pre-sent) instruction that a wildcard receive
  /// picked up and applied before its matching report went out; that
  /// report then completes the round with nothing left to wait for.
  int prepaid_round_ = 0;
  /// Wire round of the instructions currently being applied (tags move
  /// orders and cz.move_* spans with their ordering round).
  std::int32_t applying_round_ = 0;
  double units_since_ = 0;
  double until_next_;
  sim::Time window_start_ = 0;
  sim::Time app_blocked_accum_ = 0;  // application waits inside the window
  sim::Time overhead_accum_ = 0;  // report/instr processing time (not waits)
  sim::Time last_overhead_ = 0;
  sim::Time move_time_accum_ = 0;
  int moved_units_accum_ = 0;
  bool phase_done_ = false;
  bool final_ = false;
};

}  // namespace nowlb::lb
