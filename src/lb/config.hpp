// Load balancer configuration: the settings some caller varies.
//
// Defaults follow the paper: 10 % projected-improvement gate, pipelined
// master interactions, period >= max(20 x interaction cost,
// 0.1 x work-movement cost, 5 x scheduling quantum, min_period) — Fig. 4.
// The Fig. 4 multiples and the rate filter's weights are constants of
// lb/frequency.hpp and lb/filter.hpp; the scheduling quantum is the
// world's (sim::HostConfig::quantum).
#pragma once

#include "sim/time.hpp"

namespace nowlb::lb {

class EventSink;

using sim::Time;

enum class Movement {
  /// Work may move directly between any pair of slaves (Fig. 1a) —
  /// applications without loop-carried dependences.
  kUnrestricted,
  /// Work moves only between logically adjacent slaves, preserving a block
  /// distribution (Fig. 1b) — applications with loop-carried dependences.
  /// Every slave's target stays at one unit or more: an empty rank would
  /// break the neighbour ghost-exchange chain.
  kRestricted,
};

/// Reliable-delivery layer for the master/slave protocol (DESIGN.md §9).
/// Off by default: the classic runtime assumes a perfect network and its
/// wire format and timing must stay bit-identical. Its retransmission
/// timeout and retry budget are constants of lb/transport.cpp.
struct TransportConfig {
  bool enabled = false;
};

struct LbConfig {
  /// Pipelined master interactions (Fig. 2b): instructions received at a
  /// balancing point are based on the previous point's status. Synchronous
  /// (Fig. 2a) puts the full master round-trip on the critical path.
  bool pipelined = true;

  Movement movement = Movement::kUnrestricted;

  /// Minimum projected reduction in completion time to move work (§3.2).
  double improvement_threshold = 0.10;

  /// Enable the profitability determination phase: cancel movements whose
  /// estimated cost exceeds the projected benefit (§3.2).
  bool profitability_check = true;

  /// Enable trend-adaptive filtering of rate reports; when false the raw
  /// rate is used directly (ablation).
  bool filtering = true;

  // ---- load-balancing frequency selection (§4.3 / Fig. 4) ----
  /// Hard floor on the balancing period.
  Time min_period = 500 * sim::kMillisecond;

  /// Starting estimates, refined by measurement at run time. The movement
  /// estimate starts optimistic: a pessimistic start would cancel every
  /// early movement on profitability grounds and the real cost would never
  /// be measured (it is only measured when work actually moves).
  Time initial_interaction_cost = 2 * sim::kMillisecond;
  Time initial_move_cost = 2 * sim::kMillisecond;

  /// Reliable transport wrapped around report/instruction/move traffic.
  TransportConfig transport;

  /// Failure-detection deadline: if a slave's status report is more than
  /// this late at a collection point, the master declares the rank dead,
  /// evicts it and reassigns its outstanding work to the survivors. Zero
  /// disables fault tolerance (a missing report blocks forever, as in the
  /// paper's perfect-network model). Requires transport.enabled and
  /// phase-counting termination.
  Time heartbeat_timeout = 0;
  bool fault_tolerance() const { return heartbeat_timeout > 0; }

  /// Optional subscriber to the protocol-event stream (lb/events.hpp);
  /// src/check's InvariantSet. Master, slaves and transports report every
  /// event a checker reads to it; null disables checking. Not owned; must
  /// outlive the run.
  EventSink* check = nullptr;
};

}  // namespace nowlb::lb
