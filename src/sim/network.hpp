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

#include <map>

#include "obs/attach.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace nowlb::obs {
class Counter;
class TraceBus;
}  // namespace nowlb::obs

namespace nowlb::sim {

class Process;

class Network {
 public:
  Network(Engine& eng, NetConfig cfg)
      : eng_(eng), cfg_(cfg), fault_rng_(cfg.fault_seed) {}

  /// Enqueue `m` for delivery from src_host to dst (on dst_host) starting
  /// at the current virtual time.
  void post(Message m, int src_host, Process& dst, int dst_host);

 private:
  friend void obs::attach(sim::World& w, obs::Observability* hub);

  bool fault_eligible(const Message& m, int src_host, int dst_host) const;

  /// Record into `hub` (null: record nothing): msg.send/deliver/drop/dup
  /// instants on its trace bus and the sim_messages_* and
  /// sim_payload_bytes counters, resolved here once. Pure observation: no
  /// clock or RNG effect, traces stay bit-identical.
  void record_into(obs::Observability* hub);

  Engine& eng_;
  NetConfig cfg_;
  Rng fault_rng_;
  // The attached hub's trace bus and counters; all null without a hub.
  obs::TraceBus* trace_ = nullptr;
  obs::Counter* sent_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* duplicated_ = nullptr;
  // Keyed lookups only (never iterated), but an ordered map keeps the
  // container off nowlb-lint's D003 unordered ban with nothing to justify:
  // host counts are small enough that the tree vs. hash cost is noise.
  std::map<int, Time> link_busy_until_;
};

}  // namespace nowlb::sim
