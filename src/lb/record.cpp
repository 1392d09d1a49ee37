// The flight recorder's lb subscriber: every trace event, metric and
// decision-ledger record the load-balancing runtime produces is written
// here, from the protocol-event stream (lb/events.hpp).
#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <variant>

#include "lb/events.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"

namespace nowlb::lb {
namespace {

using obs::TraceArg;

template <class T>
double num(T v) {
  return static_cast<double>(v);
}

/// The lb_* metrics, registered together the first time one is touched.
struct LbMetrics {
  obs::Counter &rounds, &moves_ordered, &units_moved, &cancelled_threshold,
      &cancelled_profit, &evictions, &orphans;
  obs::Gauge& period;
  obs::Histogram& round_seconds;
};

/// The transport_* counters, indexed by TransportEvent::Kind (a blackhole
/// has no counter).
struct MetricName {
  const char* name;
  const char* help;
};
constexpr MetricName kTransportMetrics[] = {
    {"transport_sent", "Reliable messages sent"},
    {"transport_acks_sent", "Acknowledgements sent"},
    {"transport_retransmits", "Timeout retransmissions"},
    {"transport_gave_up", "Messages abandoned after max retries"},
    {"transport_dups_suppressed", "Duplicate deliveries suppressed"},
    {"transport_held_reordered",
     "Out-of-order arrivals held for the gap to close"},
    {"transport_swallowed_from_dead",
     "Arrivals swallowed from blackholed peers"},
};
static_assert(std::size(kTransportMetrics) == TransportEvent::kBlackhole);

class Recorder final : public EventSink {
 public:
  Recorder(sim::Context& ctx, obs::Observability& hub)
      : ctx_(ctx), hub_(hub) {}

  void on(sim::Time t, const Event& ev) override {
    std::visit([&](const auto& e) { record(t, e); }, ev);
  }

 private:
  void instant(sim::Time t, const char* cat, const char* name,
               TraceArg a0 = {}, TraceArg a1 = {}, TraceArg a2 = {}) {
    hub_.trace.instant(t, ctx_.host_id(), ctx_.pid(), cat, name, a0, a1, a2);
  }
  void span(sim::Time begin, sim::Time end, const char* cat,
            const char* name, TraceArg a0 = {}, TraceArg a1 = {},
            TraceArg a2 = {}) {
    hub_.trace.complete(begin, end, ctx_.host_id(), ctx_.pid(), cat, name, a0,
                        a1, a2);
  }
  LbMetrics& lb() {
    if (lb_) return *lb_;
    obs::MetricsRegistry& m = hub_.metrics;
    return lb_.emplace(LbMetrics{
        m.counter("lb_rounds", "Balancing rounds completed"),
        m.counter("lb_moves_ordered", "Rounds where movement was ordered"),
        m.counter("lb_units_moved", "Work units in ordered transfers"),
        m.counter("lb_cancelled_threshold",
                  "Rounds gated by the improvement threshold"),
        m.counter("lb_cancelled_profit", "Rounds cancelled by profitability"),
        m.counter("lb_evictions", "Ranks declared dead"),
        m.counter("lb_orphans_reassigned",
                  "Orphaned units handed to survivors"),
        m.gauge("lb_period_seconds", "Current balancing period"),
        m.histogram(
            "lb_round_seconds",
            {0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0},
            "Master-side round latency (reports collected to instructions "
            "sent)")});
  }
  obs::Counter& tx(TransportEvent::Kind kind) {
    if (tx_[0] == nullptr) {
      for (std::size_t i = 0; i < tx_.size(); ++i) {
        tx_[i] = &hub_.metrics.counter(kTransportMetrics[i].name,
                                       kTransportMetrics[i].help);
      }
    }
    return *tx_[kind];
  }

  // ---- master ----
  void record(sim::Time t, const ReportArrived& e) {
    // Receive-side half of the slave->master transport edge.
    instant(t, "cz", "cz.report_recv", {"rank", num(e.rank)},
            {"round", num(e.round)});
  }
  void record(sim::Time t, const ReportsCollected& e) {
    for (std::size_t r = 0; r < e.reports.size(); ++r) {
      if (!e.mask[r]) continue;
      instant(t, "lb", "lb.report", {"rank", num(r)}, {"round", num(e.round)},
              {"remaining", num(e.reports[r].remaining)});
    }
  }
  void record(sim::Time t, const RateFiltered& e) {
    instant(t, "lb", "lb.filter", {"rank", num(e.rank)}, {"raw", e.raw},
            {"filtered", e.filtered});
  }
  void record(sim::Time t, const RoundClosed& e) {
    obs::DecisionRecord rec;
    rec.round = static_cast<std::uint64_t>(e.round);
    rec.t = t;
    rec.gate = e.gate;
    rec.reason = e.reason;
    rec.raw_rates = e.raw_rates;
    rec.rates = e.rates;
    rec.remaining.assign(e.remaining.begin(), e.remaining.end());
    rec.period_s = e.period_s;
    if (const Decision* d = e.decision) {
      rec.target.assign(d->target.begin(), d->target.end());
      rec.moves.reserve(d->transfers.size());
      for (const Transfer& tr : d->transfers) {
        rec.moves.push_back({tr.from_rank, tr.to_rank, tr.count});
      }
      rec.improvement = d->improvement;
      rec.projected_current_s = d->projected_current_s;
      rec.projected_new_s = d->projected_new_s;
      rec.est_move_cost_s = d->est_move_cost_s;
    } else {
      rec.target = rec.remaining;
    }
    int units = 0;
    for (const obs::Move& mv : rec.moves) units += static_cast<int>(mv.count);

    LbMetrics& m = lb();
    m.rounds.inc();
    m.period.set(e.period_s);
    switch (e.gate) {
      case obs::Gate::kMove:
        m.moves_ordered.inc();
        m.units_moved.inc(static_cast<std::uint64_t>(units));
        break;
      case obs::Gate::kBelowThreshold:
        m.cancelled_threshold.inc();
        break;
      case obs::Gate::kNotProfitable:
        m.cancelled_profit.inc();
        break;
      default:
        break;
    }
    instant(t, "lb", "lb.decision", {"round", num(rec.round)},
            {"gate", num(static_cast<int>(e.gate))}, {"units", num(units)});
    hub_.ledger.append(std::move(rec));
  }
  void record(sim::Time t, const InstructionsSent& e) {
    // Send-side half of the master->slave transport edge; `decision` maps
    // the wire round onto the ledger round without any wire bytes.
    instant(t, "cz", "cz.instr_send", {"rank", num(e.rank)},
            {"round", num(e.ins.round)}, {"decision", num(e.decision_round)});
  }
  void record(sim::Time t, const RoundTimed& e) {
    lb().round_seconds.observe(sim::to_seconds(t - e.start));
    span(e.start, t, "lb", "lb.round", {"round", num(e.round)});
  }
  void record(sim::Time t, const RankEvicted& e) {
    lb().evictions.inc();
    instant(t, "lb", "lb.evict", {"rank", num(e.rank)});
  }
  void record(sim::Time t, const OrphansAssigned& e) {
    lb().orphans.inc(e.ids.size());
    instant(t, "lb", "lb.adopt", {"rank", num(e.rank)},
            {"units", num(e.ids.size())});
  }

  // ---- slave agent ----
  void record(sim::Time t, const ReportSent& e) {
    instant(t, "lb", "slave.report", {"rank", num(e.rank)},
            {"round", num(e.report.round)},
            {"remaining", num(e.report.remaining)});
    // The measurement window this report closes: compute time is the span
    // minus the blocked share.
    span(e.window_start, t, "cz", "cz.window", {"rank", num(e.rank)},
         {"round", num(e.report.round)},
         {"blocked", sim::to_seconds(e.blocked)});
  }
  void record(sim::Time t, const InstructionsApplied& e) {
    instant(t, "lb", "slave.instr", {"rank", num(e.rank)},
            {"round", num(e.ins.round)},
            {"phase_done", e.ins.phase_done ? 1.0 : 0.0});
  }
  void record(sim::Time, const Adopted& e) {
    instant(e.start, "lb", "slave.adopt", {"units", num(e.ids.size())});
  }
  void record(sim::Time t, const Blocked& e) {
    span(e.start, t, "cz", "cz.blocked", {"rank", num(e.rank)},
         {"round", num(e.round)});
  }
  void record(sim::Time t, const UnitsPacked& e) {
    instant(t, "lb", "slave.move_send", {"to", num(e.to_rank)},
            {"units", num(e.actual)});
  }
  void record(sim::Time t, const MoveSent& e) {
    span(e.start, t, "cz", "cz.move_send", {"rank", num(e.rank)},
         {"to", num(e.to_rank)}, {"round", num(e.round)});
  }
  void record(sim::Time t, const UnitsUnpacked& e) {
    instant(t, "lb", "slave.move_recv", {"from", num(e.from_rank)},
            {"units", num(e.actual)});
    span(e.start, t, "cz", "cz.move_recv", {"rank", num(e.rank)},
         {"from", num(e.from_rank)}, {"round", num(e.round)});
  }

  // ---- transport ----
  void record(sim::Time t, const TransportEvent& e) {
    if (e.kind != TransportEvent::kBlackhole) tx(e.kind).inc();
    switch (e.kind) {
      case TransportEvent::kAck:
        instant(t, "tx", "tx.ack", {"tag", num(e.tag)}, {"seq", num(e.seq)},
                {"dst", num(e.peer)});
        break;
      case TransportEvent::kRetransmit:
        instant(t, "tx", "tx.retransmit", {"tag", num(e.tag)},
                {"seq", num(e.seq)}, {"attempt", num(e.attempt)});
        break;
      case TransportEvent::kGaveUp:
        instant(t, "tx", "tx.gave_up", {"tag", num(e.tag)},
                {"seq", num(e.seq)}, {"peer", num(e.peer)});
        break;
      case TransportEvent::kBlackhole:
        instant(t, "tx", "tx.blackhole", {"peer", num(e.peer)});
        break;
      default:
        break;
    }
  }
  /// Deliveries are checked, never recorded: Transport::deliver_async
  /// reports them to the invariant set only.
  void record(sim::Time, const Delivered&) {}
  void record(sim::Time t, const Drained& e) {
    span(e.start, t, "tx", "tx.drain");
  }

  sim::Context& ctx_;
  obs::Observability& hub_;
  std::optional<LbMetrics> lb_;
  std::array<obs::Counter*, std::size(kTransportMetrics)> tx_{};
};

}  // namespace

Observers::Observers(sim::Context& ctx, EventSink* check)
    : ctx_(ctx), check_(check) {
  if (obs::Observability* hub = ctx.world().obs()) {
    recorder_ = std::make_unique<Recorder>(ctx, *hub);
  }
}

}  // namespace nowlb::lb
