#include "lb/master.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sim/world.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace nowlb::lb {

using sim::Task;
using sim::Time;
using sim::to_seconds;

Master::Master(sim::Context& ctx, ClusterConfig cfg,
               std::vector<sim::Pid> slave_pids, MasterStats& stats)
    : ctx_(ctx),
      cfg_(std::move(cfg)),
      slave_pids_(std::move(slave_pids)),
      events_(ctx, cfg_.lb.check),
      nslaves_(static_cast<int>(slave_pids_.size())),
      freq_(cfg_.lb, ctx.world().config().host.quantum),
      move_cost_per_unit_s_(to_seconds(cfg_.lb.initial_move_cost)),
      stats_(stats) {
  NOWLB_CHECK(nslaves_ > 0, "master needs at least one slave");
  NOWLB_CHECK(cfg_.initial_counts.size() == slave_pids_.size(),
              "initial_counts size mismatch");
  filters_.assign(nslaves_, TrendFilter());
  rates_.assign(nslaves_, 0.0);
  raw_rates_.assign(nslaves_, 0.0);
  measured_.assign(nslaves_, false);
  active_.assign(nslaves_, true);
  collected_.assign(nslaves_, false);
  adopt_orders_.assign(nslaves_, {});
  if (ft()) {
    NOWLB_CHECK(cfg_.lb.transport.enabled,
                "fault tolerance requires the reliable transport");
    NOWLB_CHECK(cfg_.termination == Termination::kPhases,
                "fault tolerance requires phase-counting termination");
  }
  transport_ = std::make_unique<Transport>(
      ctx_, cfg_.lb.transport,
      std::vector<sim::Tag>{kTagReport, kTagInstr, kTagMove}, cfg_.lb.check);
}

int Master::rank_of(sim::Pid pid) const {
  for (int r = 0; r < nslaves_; ++r) {
    if (slave_pids_[r] == pid) return r;
  }
  NOWLB_CHECK(false, "report from unknown pid " << pid);
  return -1;
}

Task<> Master::run() {
  if (cfg_.termination == Termination::kDoneFlags) {
    co_await run_done_flags();
  } else {
    for (int phase = 0; phase < cfg_.phases; ++phase) {
      co_await run_phase();
    }
  }
  // Linger until the final instructions are acked: returning destroys the
  // transport and its retransmit timers, and a still-dropped phase_done
  // would strand its slave forever.
  co_await transport_->drain();
}

Task<> Master::run_phase() {
  if (cfg_.lb.pipelined) {
    // Prime the pipeline: the instructions consumed at each slave's first
    // balance of this phase carry no movement (no rate data yet).
    ++round_;
    for (int r = 0; r < nslaves_; ++r) {
      if (!active_[r]) continue;
      Instructions ins;
      ins.round = round_;
      ins.units_until_next =
          rates_[r] > 0 ? freq_.units_for_period(rates_[r])
                        : first_window_units(cfg_.initial_counts[r]);
      attach_ft(ins, r);
      co_await send_instr(r, std::move(ins), /*decision_round=*/0);
    }
    if (ft() && ft_sync_pending_) {
      ft_sync_round_ = round_;
      ft_sync_pending_ = false;
      newly_evicted_.clear();
    }
  }

  for (;;) {
    const int report_round = cfg_.lb.pipelined ? round_ : round_ + 1;
    if (!cfg_.lb.pipelined) ++round_;
    auto reports = co_await collect_reports(report_round, active_);
    const Time round_t0 = ctx_.now();
    ++stats_.rounds;
    process_measurements(reports, collected_);
    if (ft()) reconcile_census(reports, report_round);

    std::vector<int> remaining(nslaves_, 0);
    for (int r = 0; r < nslaves_; ++r) {
      if (collected_[r]) remaining[r] = reports[r].remaining;
    }
    const int total = std::accumulate(remaining.begin(), remaining.end(), 0);

    if (total == 0 && !recovery_pending_) {
      // Phase complete. Pipelined: the phase_done message is labelled for
      // the next round (slaves do one final balance); synchronous: for this
      // round (slaves are waiting for it now).
      if (cfg_.lb.pipelined) ++round_;
      Decision none;
      none.target = remaining;
      close_round(obs::Gate::kPhaseEnd, "no work remaining", remaining, &none);
      co_await send_instructions(round_, /*phase_done=*/true, none, rates_,
                                 active_);
      events_.emit(RoundTimed{round_t0, stats_.rounds});
      if (cfg_.lb.pipelined) {
        // Consume the final reports so rounds stay aligned across phases.
        auto finals = co_await collect_reports(round_, active_);
        process_measurements(finals, collected_);
        ++stats_.rounds;
        std::vector<int> fin(nslaves_, 0);
        for (int r = 0; r < nslaves_; ++r) {
          if (collected_[r]) fin[r] = finals[r].remaining;
        }
        close_round(obs::Gate::kFinalReports, "final reports consumed", fin,
                    nullptr);
      }
      co_return;
    }

    Decision d;
    if (recovery_pending_) {
      // Freeze ordinary movement while an eviction is being recovered:
      // in-flight transfers would blur the inventory census that recovery
      // is built on.
      d.target = remaining;
      d.reason = "movement frozen during fault recovery";
      close_round(obs::Gate::kRecoveryFreeze, d.reason, remaining, &d);
    } else {
      d = make_decision(remaining);
    }
    if (cfg_.lb.pipelined) ++round_;
    co_await send_instructions(round_, /*phase_done=*/false, d, rates_,
                               active_);
    events_.emit(RoundTimed{round_t0, stats_.rounds});
  }
}

Task<> Master::run_done_flags() {
  // Reply-style rounds: instructions answer the current round's reports.
  // Slaves poll for them (LbConfig.pipelined should be true), so the reply
  // latency stays off their critical path while the data stays fresh.
  std::vector<bool> active(nslaves_, true);
  int n_active = nslaves_;

  while (n_active > 0) {
    ++round_;
    auto reports = co_await collect_reports(round_, active);
    const Time round_t0 = ctx_.now();
    ++stats_.rounds;
    process_measurements(reports, active);

    std::vector<int> remaining(nslaves_, 0);
    for (int r = 0; r < nslaves_; ++r) {
      if (!active[r]) continue;
      remaining[r] = reports[r].remaining;
      if (reports[r].done) {
        active[r] = false;
        --n_active;
        rates_[r] = 0;  // no longer a movement target
        NOWLB_CHECK(reports[r].remaining == 0,
                    "rank " << r << " finished with work remaining");
      }
    }
    if (n_active == 0) {
      close_round(obs::Gate::kPhaseEnd, "all slaves done", remaining, nullptr);
      co_return;
    }

    const Decision d = make_decision(remaining);
    co_await send_instructions(round_, /*phase_done=*/false, d, rates_,
                               active);
    events_.emit(RoundTimed{round_t0, stats_.rounds});
  }
}

Decision Master::make_decision(const std::vector<int>& remaining) {
  Decision d = decide(cfg_.lb, remaining, rates_, move_cost_per_unit_s_,
                      to_seconds(freq_.period()));
  switch (d.gate) {
    case obs::Gate::kMove:
      ++stats_.moves_ordered;
      stats_.units_moved += units_moved(d.transfers);
      break;
    case obs::Gate::kBelowThreshold:
      ++stats_.cancelled_threshold;
      break;
    case obs::Gate::kNotProfitable:
      ++stats_.cancelled_profit;
      break;
    default:
      break;
  }
  stats_.last_period_s = to_seconds(freq_.period());
  close_round(d.gate, d.reason, remaining, &d);
  return d;
}

void Master::close_round(obs::Gate gate, const char* reason,
                         const std::vector<int>& remaining,
                         const Decision* d) {
  events_.emit(RoundClosed{stats_.rounds, gate, reason, remaining, d,
                           raw_rates_, rates_, to_seconds(freq_.period())});
}

Task<std::vector<StatusReport>> Master::collect_reports(
    int round, const std::vector<bool>& expected) {
  std::vector<StatusReport> reports(nslaves_);
  std::vector<bool> seen(nslaves_, false);
  int want = 0;
  for (int r = 0; r < nslaves_; ++r) want += expected[r] ? 1 : 0;
  int have = 0;
  const Time deadline = ctx_.now() + cfg_.lb.heartbeat_timeout;

  // First take any reports stashed by the previous collection (an idle
  // slave may run one round ahead of slower slaves).
  std::vector<std::pair<sim::Pid, StatusReport>> still_early;
  for (auto& [src, rep] : stashed_) {
    if (rep.round == round) {
      const int rank = rank_of(src);
      NOWLB_CHECK(!seen[rank], "duplicate stashed report from rank " << rank);
      NOWLB_CHECK(expected[rank], "stashed report from unexpected rank "
                                      << rank);
      seen[rank] = true;
      reports[rank] = rep;
      ++have;
    } else {
      still_early.emplace_back(src, rep);
    }
  }
  stashed_ = std::move(still_early);

  while (have < want) {
    sim::Pid src;
    StatusReport rep;
    if (ft()) {
      auto m = co_await ctx_.recv_until(kTagReport, sim::kAnyPid, deadline);
      if (!m) {
        // Heartbeat deadline passed with reports outstanding: every silent
        // rank is presumed crashed. Evict them all and return the partial
        // collection; recovery proceeds from the survivors' census.
        for (int r = 0; r < nslaves_; ++r) {
          if (expected[r] && !seen[r]) evict(r);
        }
        break;
      }
      src = m->src;
      rep = msg::decode<StatusReport>(m->payload);
      if (!active_[rank_of(src)]) {
        // A rank evicted in an earlier round is still talking: the
        // transport blackhole should have swallowed this. Note it (a
        // symptom of a false eviction) and drop the report.
        NOWLB_LOG(Warn, "lb") << "report from evicted rank " << rank_of(src);
        continue;
      }
    } else {
      sim::Message m = co_await ctx_.recv(kTagReport);
      src = m.src;
      rep = msg::decode<StatusReport>(m.payload);
    }
    const int rank = rank_of(src);
    NOWLB_CHECK(expected[rank], "report from unexpected rank " << rank);
    // Stamped at true arrival time: a stashed early report is not
    // re-reported when the next collection consumes it.
    events_.emit(ReportArrived{rank, rep.round});
    if (rep.round == round + 1) {
      stashed_.emplace_back(src, rep);
      continue;
    }
    NOWLB_CHECK(rep.round == round, "rank " << rank << " reported round "
                                            << rep.round << ", expected "
                                            << round);
    NOWLB_CHECK(!seen[rank], "duplicate report from rank " << rank);
    seen[rank] = true;
    reports[rank] = rep;
    ++have;
  }
  collected_ = seen;
  events_.emit(ReportsCollected{round, reports, seen});
  co_return reports;
}

void Master::process_measurements(const std::vector<StatusReport>& reports,
                                  const std::vector<bool>& mask) {
  // Interaction cost: the *least*-blocked slave reflects the pure cost of
  // exchanging information with the master; larger values are round skew
  // (waiting for stragglers), which is load imbalance, not overhead.
  Time min_blocked = std::numeric_limits<Time>::max();
  for (int r = 0; r < nslaves_; ++r) {
    if (!mask[r]) continue;
    const auto& rep = reports[r];
    // Rate update. Uninformative windows keep the previous estimate (see
    // informative_window).
    if (informative_window(rep)) {
      raw_rates_[r] = rep.units_done / rep.elapsed_s;
      rates_[r] = cfg_.lb.filtering ? filters_[r].update(raw_rates_[r])
                                    : raw_rates_[r];
      measured_[r] = true;
      events_.emit(RateFiltered{r, raw_rates_[r], rates_[r]});
    }
    if (rep.lb_blocked_s > 0) {
      min_blocked =
          std::min(min_blocked, sim::from_seconds(rep.lb_blocked_s));
    }
    if (rep.moved_units > 0) {
      const double per_unit = rep.move_time_s / rep.moved_units;
      move_cost_per_unit_s_ = 0.5 * (move_cost_per_unit_s_ + per_unit);
      freq_.observe_move_event(sim::from_seconds(rep.move_time_s));
    }
  }
  if (min_blocked != std::numeric_limits<Time>::max()) {
    freq_.observe_interaction(min_blocked);
  }

  // An idle slave's window measures nothing about its capacity, yet its
  // stale (possibly noisy-low) estimate decides whether it gets work again
  // — a starvation lock-in. Let unmeasured or idle slaves' estimates drift
  // toward the mean of the measured ones (never downward: idleness is no
  // evidence of slowness).
  double sum = 0;
  int cnt = 0;
  for (int r = 0; r < nslaves_; ++r) {
    if (mask[r] && measured_[r] && rates_[r] > 0) {
      sum += rates_[r];
      ++cnt;
    }
  }
  if (cnt > 0) {
    const double prior = sum / cnt;
    for (int r = 0; r < nslaves_; ++r) {
      if (!mask[r]) continue;
      if (!measured_[r]) {
        rates_[r] = prior;
        filters_[r].force(prior);
      } else if (reports[r].units_done == 0 && reports[r].remaining == 0 &&
                 rates_[r] < prior) {
        rates_[r] += 0.3 * (prior - rates_[r]);
        filters_[r].force(rates_[r]);
      }
    }
  }
}

Task<> Master::send_instructions(int round, bool phase_done,
                                 const Decision& decision,
                                 const std::vector<double>& rates,
                                 const std::vector<bool>& recipients) {
  // Group transfers into per-rank send/receive orders.
  std::vector<std::vector<MoveOrder>> orders(nslaves_);
  for (const Transfer& t : decision.transfers) {
    orders[t.from_rank].push_back(
        {t.to_rank, t.count, /*is_send=*/std::uint8_t{1}});
    orders[t.to_rank].push_back(
        {t.from_rank, t.count, /*is_send=*/std::uint8_t{0}});
  }
  for (int r = 0; r < nslaves_; ++r) {
    if (!recipients[r]) {
      NOWLB_CHECK(orders[r].empty(),
                  "movement ordered for inactive rank " << r);
      continue;
    }
    Instructions ins;
    ins.round = round;
    ins.phase_done = phase_done ? 1 : 0;
    ins.units_until_next =
        rates[r] > 0 ? freq_.units_for_period(rates[r])
                     : first_window_units(cfg_.initial_counts[r]);
    ins.orders = std::move(orders[r]);
    attach_ft(ins, r);
    co_await send_instr(r, std::move(ins), /*decision_round=*/stats_.rounds);
  }
  if (ft() && ft_sync_pending_) {
    ft_sync_round_ = round;
    ft_sync_pending_ = false;
    newly_evicted_.clear();
  }
}

Task<> Master::send_instr(int rank, Instructions ins, int decision_round) {
  events_.emit(InstructionsSent{rank, ins, decision_round});
  co_await transport_->send(slave_pids_[rank], kTagInstr, msg::encode(ins));
}

void Master::attach_ft(Instructions& ins, int rank) {
  if (!ft()) return;
  ins.ft = 1;
  ins.evicted.assign(newly_evicted_.begin(), newly_evicted_.end());
  if (!adopt_orders_[rank].empty()) {
    ins.adopt = std::move(adopt_orders_[rank]);
    adopt_orders_[rank].clear();
  }
}

void Master::evict(int rank) {
  NOWLB_CHECK(active_[rank], "evicting rank " << rank << " twice");
  NOWLB_LOG(Warn, "lb") << "master evicts rank " << rank
                        << " (report overdue at t="
                        << to_seconds(ctx_.now()) << "s)";
  active_[rank] = false;
  rates_[rank] = 0;
  raw_rates_[rank] = 0;
  measured_[rank] = false;
  newly_evicted_.push_back(rank);
  adopt_orders_[rank].clear();  // undeliverable; orphans get recomputed
  recovery_pending_ = true;
  ft_sync_pending_ = true;
  ++stats_.evictions;
  events_.emit(RankEvicted{rank});
  transport_->blackhole(slave_pids_[rank]);
  // Forget any early report the dead rank stashed before crashing.
  std::erase_if(stashed_, [&](const auto& e) {
    return e.first == slave_pids_[rank];
  });
}

void Master::reconcile_census(const std::vector<StatusReport>& reports,
                              int census_round) {
  if (!recovery_pending_) return;
  // The census is only trustworthy once every survivor has applied the
  // latest FT state — eviction notices (drop in-flight traffic from the
  // dead, settle survivor-to-survivor moves) and adopt orders: their
  // reports of the round after the instructions that carried it.
  if (ft_sync_pending_) return;
  if (ft_sync_round_ < 0 || census_round <= ft_sync_round_) return;
  const int total_units = std::accumulate(cfg_.initial_counts.begin(),
                                          cfg_.initial_counts.end(), 0);
  std::vector<bool> held(static_cast<std::size_t>(total_units), false);
  for (int r = 0; r < nslaves_; ++r) {
    if (!active_[r]) continue;
    if (!collected_[r]) return;  // partial view: wait for a full round
    NOWLB_CHECK(reports[r].ft, "census round report without FT trailer");
    for (std::int32_t id : reports[r].inventory) {
      const auto idx = static_cast<std::size_t>(id);
      NOWLB_CHECK(idx < held.size(), "inventory id " << id << " out of range");
      NOWLB_CHECK(!held[idx], "unit " << id << " owned by two ranks");
      held[idx] = true;
    }
  }
  std::vector<std::int32_t> orphans;
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (!held[i]) {
      orphans.push_back(static_cast<std::int32_t>(i));
    }
  }
  if (orphans.empty()) {
    // Coverage complete: every unit in the range has a live owner.
    NOWLB_LOG(Info, "lb") << "fault recovery complete at round "
                          << census_round;
    recovery_pending_ = false;
    return;
  }
  // Partition the orphans over the survivors, proportional to their
  // filtered rates (even split when no rate information survives).
  std::vector<int> survivors;
  double rate_sum = 0;
  for (int r = 0; r < nslaves_; ++r) {
    if (active_[r]) {
      survivors.push_back(r);
      rate_sum += std::max(0.0, rates_[r]);
    }
  }
  NOWLB_CHECK(!survivors.empty(), "no surviving slaves to adopt work");
  std::vector<double> weight(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    weight[i] = rate_sum > 0 ? std::max(0.0, rates_[survivors[i]]) / rate_sum
                             : 1.0 / static_cast<double>(survivors.size());
  }
  // Contiguous proportional split (largest-remainder not needed: adopters
  // re-balance through the ordinary mechanism once recovery completes).
  std::vector<double> cum(survivors.size());
  double acc = 0;
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    acc += weight[i];
    cum[i] = acc;
  }
  std::vector<std::vector<std::int32_t>> assigned(survivors.size());
  const double n = static_cast<double>(orphans.size());
  std::size_t s = 0;
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    const double frac = (static_cast<double>(i) + 0.5) / n;
    while (s + 1 < survivors.size() && frac > cum[s] / acc) ++s;
    assigned[s].push_back(orphans[i]);
  }
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    if (assigned[i].empty()) continue;
    const int r = survivors[i];
    NOWLB_LOG(Info, "lb") << "rank " << r << " adopts " << assigned[i].size()
                          << " orphaned units";
    stats_.orphans_reassigned += static_cast<int>(assigned[i].size());
    events_.emit(OrphansAssigned{r, assigned[i]});
    adopt_orders_[r] = std::move(assigned[i]);
  }
  ft_sync_pending_ = true;  // census stale until the adopt orders land
}

}  // namespace nowlb::lb
