// Master <-> slave wire protocol (§3.2, §3.3).
//
// Each balancing round, every slave sends one StatusReport and receives one
// Instructions message. In pipelined mode (Fig. 2b) the instructions a slave
// receives at round r were computed from round r-1's reports; in synchronous
// mode (Fig. 2a) from round r's.
#pragma once

#include <cstdint>
#include <vector>

#include "msg/serialize.hpp"
#include "sim/message.hpp"

namespace nowlb::lb {

// Message tags used by the load-balancing runtime.
inline constexpr sim::Tag kTagReport = 9001;  // slave -> master status
inline constexpr sim::Tag kTagInstr = 9002;   // master -> slave instructions
inline constexpr sim::Tag kTagMove = 9003;    // slave -> slave work movement
inline constexpr sim::Tag kTagAck = 9004;     // transport acknowledgement

// The optional fault-tolerance trailer rides behind the fixed fields,
// introduced by a one-byte marker (`a.trailer` in fields()). With it off,
// the wire bytes are the fixed fields alone. The value is fixed by the
// byte pins: message sizes feed simulated transfer times.
inline constexpr std::uint8_t kTrailerFt = 1;

/// Slave performance since the last information exchange, measured in the
/// application-specific unit of "work units per second" — iterations of the
/// distributed loop — so heterogeneous or loaded processors need no
/// explicit weighting (§3.2).
struct StatusReport {
  std::int32_t round = 0;
  /// Work units completed since the previous report.
  double units_done = 0;
  /// Wall-clock seconds since the previous report (the whole window,
  /// including communication — competing load shows up here).
  double elapsed_s = 0;
  /// Active work units still held locally.
  std::int32_t remaining = 0;
  /// Seconds spent blocked in the previous balance round (interaction cost).
  double lb_blocked_s = 0;
  /// Seconds spent packing/sending/receiving/unpacking moved work since the
  /// previous report, and the units involved (movement cost measurement).
  double move_time_s = 0;
  std::int32_t moved_units = 0;
  /// Final report: this slave has finished its whole computation and will
  /// not participate in further rounds (done-flag termination mode).
  std::uint8_t done = 0;

  // ---- fault-tolerance trailer (heartbeat regime; absent otherwise) ----
  /// Trailer present. Set by slaves running under a heartbeat regime.
  std::uint8_t ft = 0;
  /// Census: the unit ids this slave holds after applying the previous
  /// round's instructions. The master reconstructs orphaned work from the
  /// survivors' inventories after an eviction (DESIGN.md §9).
  std::vector<std::int32_t> inventory;

  template <class A>
  void fields(A& a) {
    a(round, units_done, elapsed_s, remaining, lb_blocked_s, move_time_s,
      moved_units, done);
    a.trailer(kTrailerFt, ft, inventory);
  }
};

/// One work transfer order: this slave sends `count` units to `peer_rank`,
/// or expects up to `count` units from it. Counts are targets computed from
/// (possibly one round old) reports; the sender ships min(count, on hand)
/// and always ships a message so the receiver's blocking receive completes.
struct MoveOrder {
  std::int32_t peer_rank = 0;
  std::int32_t count = 0;
  std::uint8_t is_send = 0;
  template <class A> void fields(A& a) { a(peer_rank, count, is_send); }
};

/// Master instructions for one slave for one round.
struct Instructions {
  std::int32_t round = 0;
  /// The current distributed-loop invocation has completed globally.
  std::uint8_t phase_done = 0;
  /// Work units to complete before the next balance round (frequency
  /// control, §4.3 — converted from the target period via this slave's
  /// predicted rate).
  double units_until_next = 0;
  std::vector<MoveOrder> orders;

  // ---- fault-tolerance trailer (heartbeat regime; absent otherwise) ----
  /// Trailer present.
  std::uint8_t ft = 0;
  /// Ranks evicted since the previous instructions. Recipients must stop
  /// expecting traffic from them and settle in-flight survivor moves.
  std::vector<std::int32_t> evicted;
  /// Orphaned unit ids this slave must reconstruct and take over.
  std::vector<std::int32_t> adopt;

  template <class A>
  void fields(A& a) {
    a(round, phase_done, units_until_next, orders);
    a.trailer(kTrailerFt, ft, evicted, adopt);
  }
};

}  // namespace nowlb::lb
