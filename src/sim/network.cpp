#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "sim/process.hpp"

namespace nowlb::sim {

bool Network::fault_eligible(const Message& m, int src_host,
                             int dst_host) const {
  if (!cfg_.faulty() || src_host == dst_host) return false;
  if (cfg_.fault_tag_lo > cfg_.fault_tag_hi) return true;  // empty = all
  return m.tag >= cfg_.fault_tag_lo && m.tag <= cfg_.fault_tag_hi;
}

void Network::record_into(obs::Observability* hub) {
  if (hub == nullptr) {
    trace_ = nullptr;
    sent_ = bytes_ = dropped_ = duplicated_ = nullptr;
    return;
  }
  trace_ = &hub->trace;
  obs::MetricsRegistry& m = hub->metrics;
  sent_ = &m.counter("sim_messages_sent", "Messages posted to the network");
  bytes_ =
      &m.counter("sim_payload_bytes", "Payload bytes posted to the network");
  dropped_ = &m.counter("sim_messages_dropped",
                        "Messages lost in flight (fault injection)");
  duplicated_ = &m.counter("sim_messages_duplicated",
                           "Extra copies delivered by duplication faults");
}

void Network::post(Message m, int src_host, Process& dst, int dst_host) {
  if (trace_) {
    sent_->inc();
    bytes_->inc(m.payload.size());
    trace_->instant(eng_.now(), src_host, m.src, "msg", "msg.send",
                    {"tag", static_cast<double>(m.tag)},
                    {"dst", static_cast<double>(m.dst)},
                    {"bytes", static_cast<double>(m.payload.size())});
  }

  Time arrival;
  if (src_host == dst_host) {
    arrival = eng_.now() + cfg_.local_latency;
  } else {
    const double tx_seconds =
        static_cast<double>(m.wire_size(cfg_.header_bytes)) /
        cfg_.bandwidth_bps;
    const Time tx = from_seconds(tx_seconds);
    Time& busy = link_busy_until_[src_host];
    const Time start = std::max(eng_.now(), busy);
    busy = start + tx;
    arrival = busy + cfg_.latency;
  }

  // Fault injection. Draw order is fixed (drop, dup, delay) so a run is a
  // pure function of (config, fault_seed). A dropped message has already
  // paid for its link occupancy above: it was transmitted, then lost.
  bool duplicate = false;
  if (fault_eligible(m, src_host, dst_host)) {
    const bool drop = fault_rng_.next_double() < cfg_.drop_prob;
    duplicate = fault_rng_.next_double() < cfg_.dup_prob;
    if (cfg_.max_extra_delay > 0) {
      arrival += static_cast<Time>(
          fault_rng_.next_double() *
          static_cast<double>(cfg_.max_extra_delay));
    }
    if (drop) {
      if (trace_) {
        dropped_->inc();
        trace_->instant(arrival, dst_host, m.dst, "msg", "msg.drop",
                        {"tag", static_cast<double>(m.tag)},
                        {"src", static_cast<double>(m.src)});
      }
      return;
    }
  }

  Process* target = &dst;
  if (duplicate) {
    if (trace_) {
      duplicated_->inc();
      trace_->instant(arrival + cfg_.latency, dst_host, m.dst, "msg",
                      "msg.dup", {"tag", static_cast<double>(m.tag)},
                      {"src", static_cast<double>(m.src)});
    }
    // The copy trails the original by one wire latency (a NIC-level
    // retransmit artefact); it does not occupy the link again.
    eng_.schedule_at(arrival + cfg_.latency, [target, msg = m]() mutable {
      target->mailbox().push(std::move(msg));
    });
  }
  if (trace_) {
    trace_->instant(arrival, dst_host, m.dst, "msg", "msg.deliver",
                    {"tag", static_cast<double>(m.tag)},
                    {"src", static_cast<double>(m.src)},
                    {"bytes", static_cast<double>(m.payload.size())});
  }
  eng_.schedule_at(arrival, [target, msg = std::move(m)]() mutable {
    target->mailbox().push(std::move(msg));
  });
}

}  // namespace nowlb::sim
