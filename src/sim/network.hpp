// Crossbar network model (Nectar-style).
//
// Each host has one outgoing link; messages from that host serialize on the
// link at the configured bandwidth, then arrive after the wire latency.
// Local (same-host) messages bypass the link. Delivery pushes into the
// destination mailbox, waking any matching pending receive.
//
// With NetConfig fault injection enabled the network becomes lossy for the
// configured tag range: messages may be dropped after transmission,
// delivered twice, or delayed (reordered). The fault stream draws from a
// private seeded Rng that is consumed only when faults are on, so a
// fault-free run dispatches the exact same event sequence as before.
#pragma once

#include <cstdint>
#include <map>

#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/sink.hpp"
#include "util/rng.hpp"

namespace nowlb::sim {

class Process;

class Network {
 public:
  Network(Engine& eng, NetConfig cfg)
      : eng_(eng), cfg_(cfg), fault_rng_(cfg.fault_seed) {}

  /// Attach a trace sink (may be null; must outlive the run). Emits
  /// msg.send/deliver/drop/dup instants and sim_* counters through it. Pure
  /// observation: no clock or RNG effect, traces stay bit-identical.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Enqueue `m` for delivery from src_host to dst (on dst_host) starting
  /// at the current virtual time.
  void post(Message m, int src_host, Process& dst, int dst_host);

  /// Messages transmitted but lost before delivery (fault injection).
  std::uint64_t messages_dropped() const { return dropped_; }
  /// Extra copies delivered by duplication faults.
  std::uint64_t messages_duplicated() const { return duplicated_; }

 private:
  bool fault_eligible(const Message& m, int src_host, int dst_host) const;

  Engine& eng_;
  NetConfig cfg_;
  Rng fault_rng_;
  TraceSink* sink_ = nullptr;
  // Keyed lookups only (never iterated), but an ordered map keeps the
  // container off nowlb-lint's D003 unordered ban with nothing to justify:
  // host counts are small enough that the tree vs. hash cost is noise.
  std::map<int, Time> link_busy_until_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
};

}  // namespace nowlb::sim
