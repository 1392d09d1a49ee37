#include "check/checkers.hpp"

#include <cstdlib>
#include <numeric>
#include <string>
#include <variant>

#include "lb/master.hpp"
#include "obs/ledger.hpp"
#include "sim/world.hpp"

namespace nowlb::check {

namespace {
std::string edge(int from, int to) {
  return std::to_string(from) + "->" + std::to_string(to);
}
}  // namespace

// ------------------------------------------------- WorkConservationChecker

void WorkConservationChecker::on(sim::Time t, const lb::Event& ev) {
  if (const auto* closed = std::get_if<lb::RoundClosed>(&ev)) {
    if (closed->decision == nullptr) return;
    const lb::Decision& d = *closed->decision;
    const int total = std::accumulate(closed->remaining.begin(),
                                      closed->remaining.end(), 0);
    const int target_total =
        std::accumulate(d.target.begin(), d.target.end(), 0);
    if (target_total != total) {
      fail(t, "plan redistributes " + std::to_string(target_total) +
                  " units of " + std::to_string(total));
    }
    for (std::size_t r = 0; r < d.target.size(); ++r) {
      if (d.target[r] < 0) {
        fail(t, "negative target " + std::to_string(d.target[r]) +
                    " for rank " + std::to_string(r));
      }
    }
    for (const lb::Transfer& tr : d.transfers) {
      if (tr.count <= 0 || tr.from_rank == tr.to_rank) {
        fail(t, "degenerate transfer " + edge(tr.from_rank, tr.to_rank) +
                    " count=" + std::to_string(tr.count));
      }
    }
  } else if (const auto* sent = std::get_if<lb::ReportSent>(&ev)) {
    const lb::StatusReport& rep = sent->report;
    if (rep.units_done < 0 || rep.elapsed_s < 0 || rep.remaining < 0 ||
        rep.lb_blocked_s < 0 || rep.move_time_s < 0 || rep.moved_units < 0) {
      fail(t, "rank " + std::to_string(sent->rank) + " report r" +
                  std::to_string(rep.round) + " has a negative field");
    }
  } else if (const auto* packed = std::get_if<lb::UnitsPacked>(&ev)) {
    if (packed->actual < 0 || packed->actual > packed->ordered) {
      fail(t, "pack " + edge(packed->from_rank, packed->to_rank) +
                  " shipped " + std::to_string(packed->actual) +
                  " of ordered " + std::to_string(packed->ordered));
    }
    in_flight_[{packed->from_rank, packed->to_rank}].push_back(packed->actual);
  } else if (const auto* unpacked = std::get_if<lb::UnitsUnpacked>(&ev)) {
    if (unpacked->actual > unpacked->ordered) {
      fail(t, "unpack " + edge(unpacked->from_rank, unpacked->rank) +
                  " yielded " + std::to_string(unpacked->actual) +
                  " of ordered " + std::to_string(unpacked->ordered));
    }
    auto& fifo = in_flight_[{unpacked->from_rank, unpacked->rank}];
    if (fifo.empty()) {
      fail(t, "unpack " + edge(unpacked->from_rank, unpacked->rank) + " of " +
                  std::to_string(unpacked->actual) +
                  " units with no matching pack");
      return;
    }
    if (fifo.front() != unpacked->actual) {
      fail(t, "transfer " + edge(unpacked->from_rank, unpacked->rank) +
                  " packed " + std::to_string(fifo.front()) +
                  " units but unpacked " + std::to_string(unpacked->actual));
    }
    fifo.erase(fifo.begin());
  } else if (const auto* evicted = std::get_if<lb::RankEvicted>(&ev)) {
    dead_.insert(evicted->rank);
  }
}

void WorkConservationChecker::on_run_end(sim::Time t) {
  for (const auto& [key, fifo] : in_flight_) {
    if (fifo.empty()) continue;
    // A transfer to or from an evicted rank legitimately dies on the wire;
    // its units re-enter via the orphan census (checked by EvictionChecker
    // and the ownership coverage check), not via unpack.
    if (dead_.count(key.first) != 0 || dead_.count(key.second) != 0) continue;
    const int lost = std::accumulate(fifo.begin(), fifo.end(), 0);
    fail(t, std::to_string(lost) + " units in " + std::to_string(fifo.size()) +
                " transfer(s) " + edge(key.first, key.second) +
                " never delivered");
  }
}

// ------------------------------------------------------ ContiguityChecker

void ContiguityChecker::on(sim::Time t, const lb::Event& ev) {
  if (const auto* closed = std::get_if<lb::RoundClosed>(&ev)) {
    if (closed->decision == nullptr) return;
    for (const lb::Transfer& tr : closed->decision->transfers) {
      if (std::abs(tr.from_rank - tr.to_rank) != 1) {
        fail(t, "non-adjacent transfer " + edge(tr.from_rank, tr.to_rank) +
                    " in restricted mode");
      }
    }
  } else if (const auto* packed = std::get_if<lb::UnitsPacked>(&ev)) {
    check_contiguous(t, packed->from_rank, "after pack");
  } else if (const auto* unpacked = std::get_if<lb::UnitsUnpacked>(&ev)) {
    check_contiguous(t, unpacked->rank, "after unpack");
  }
}

void ContiguityChecker::on_slice_added(sim::Time, int rank,
                                       data::SliceId id) {
  if (rank >= 0 && rank < static_cast<int>(sets_.size())) {
    sets_[rank].insert(id);
  }
}

void ContiguityChecker::on_slice_removed(sim::Time, int rank,
                                         data::SliceId id) {
  if (rank >= 0 && rank < static_cast<int>(sets_.size())) {
    sets_[rank].erase(id);
  }
}

void ContiguityChecker::on_run_end(sim::Time t) {
  int prev_rank = -1;
  data::SliceId prev_max = 0;
  for (int r = 0; r < static_cast<int>(sets_.size()); ++r) {
    check_contiguous(t, r, "at run end");
    if (sets_[r].empty()) continue;
    if (prev_rank >= 0 && *sets_[r].begin() <= prev_max) {
      fail(t, "blocks out of rank order: rank " + std::to_string(prev_rank) +
                  " holds up to " + std::to_string(prev_max) + ", rank " +
                  std::to_string(r) + " starts at " +
                  std::to_string(*sets_[r].begin()));
    }
    prev_rank = r;
    prev_max = *sets_[r].rbegin();
  }
}

void ContiguityChecker::check_contiguous(sim::Time t, int rank,
                                         const char* when) {
  const auto& s = sets_[rank];
  if (s.empty()) return;
  const auto span = *s.rbegin() - *s.begin() + 1;
  if (span != static_cast<data::SliceId>(s.size())) {
    fail(t, "rank " + std::to_string(rank) + " block non-contiguous " + when +
                ": " + std::to_string(s.size()) + " slices span [" +
                std::to_string(*s.begin()) + ", " +
                std::to_string(*s.rbegin()) + "]");
  }
}

// ----------------------------------------------------- PipelineLagChecker

void PipelineLagChecker::on(sim::Time t, const lb::Event& ev) {
  if (const auto* collected = std::get_if<lb::ReportsCollected>(&ev)) {
    const int round = collected->round;
    if (round != last_collected_ + 1) {
      fail(t, "collected round " + std::to_string(round) + " after round " +
                  std::to_string(last_collected_));
    }
    const auto& reports = collected->reports;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      if (collected->mask[r] && reports[r].round != round) {
        fail(t, "rank " + std::to_string(r) + " report labelled round " +
                    std::to_string(reports[r].round) + " in collection " +
                    std::to_string(round));
      }
    }
    last_collected_ = round;
  } else if (const auto* issued = std::get_if<lb::InstructionsSent>(&ev)) {
    if (issued->ins.round != last_collected_ + lag_) {
      fail(t, "instructions for rank " + std::to_string(issued->rank) +
                  " carry round " + std::to_string(issued->ins.round) +
                  "; expected " + std::to_string(last_collected_ + lag_) +
                  " (last collection " + std::to_string(last_collected_) +
                  " + lag " + std::to_string(lag_) + ")");
    }
  } else if (const auto* sent = std::get_if<lb::ReportSent>(&ev)) {
    const int prev = last_report_[sent->rank];
    if (sent->report.round != prev + 1) {
      fail(t, "rank " + std::to_string(sent->rank) + " reported round " +
                  std::to_string(sent->report.round) + " after round " +
                  std::to_string(prev));
    }
    last_report_[sent->rank] = sent->report.round;
  } else if (const auto* applied = std::get_if<lb::InstructionsApplied>(&ev)) {
    const int reported = last_report_[applied->rank];
    // A pre-sent pipelined instruction may run one round ahead of the
    // slave's last report; anything else is stale or from the future.
    if (applied->ins.round != reported && applied->ins.round != reported + 1) {
      fail(t, "rank " + std::to_string(applied->rank) +
                  " applied instructions for round " +
                  std::to_string(applied->ins.round) + " at report round " +
                  std::to_string(reported));
    }
  }
}

// -------------------------------------------------- SliceOwnershipChecker

void SliceOwnershipChecker::on_slice_added(sim::Time t, int rank,
                                           data::SliceId id) {
  const auto [it, inserted] = owner_.emplace(id, rank);
  if (!inserted) {
    // Re-adding a dead rank's slice is adoption: the orphan is
    // reconstructed by its recovery assignee and ownership transfers.
    if (dead_.count(it->second) == 0) {
      fail(t, "slice " + std::to_string(id) + " added to rank " +
                  std::to_string(rank) + " while owned by rank " +
                  std::to_string(it->second));
    }
    it->second = rank;
  }
  in_flight_.erase(id);
}

void SliceOwnershipChecker::on_slice_removed(sim::Time t, int rank,
                                             data::SliceId id) {
  const auto it = owner_.find(id);
  if (it == owner_.end()) {
    fail(t, "slice " + std::to_string(id) + " removed from rank " +
                std::to_string(rank) + " but owned by no one");
    return;
  }
  if (it->second != rank) {
    fail(t, "slice " + std::to_string(id) + " removed from rank " +
                std::to_string(rank) + " but owned by rank " +
                std::to_string(it->second));
  }
  owner_.erase(it);
  in_flight_.insert(id);
}

void SliceOwnershipChecker::on(sim::Time, const lb::Event& ev) {
  if (const auto* evicted = std::get_if<lb::RankEvicted>(&ev)) {
    dead_.insert(evicted->rank);
  }
}

void SliceOwnershipChecker::on_run_end(sim::Time t) {
  if (!in_flight_.empty()) {
    fail(t, std::to_string(in_flight_.size()) +
                " slice(s) still in flight at run end (first: " +
                std::to_string(*in_flight_.begin()) + ")");
  }
  if (expected_total_ >= 0 &&
      static_cast<int>(owner_.size()) != expected_total_) {
    fail(t, "expected " + std::to_string(expected_total_) +
                " owned slices at run end, found " +
                std::to_string(owner_.size()));
  }
}

// --------------------------------------------------------- EvictionChecker

void EvictionChecker::on(sim::Time t, const lb::Event& ev) {
  if (const auto* evicted = std::get_if<lb::RankEvicted>(&ev)) {
    if (!dead_.insert(evicted->rank).second) {
      fail(t, "rank " + std::to_string(evicted->rank) + " evicted twice");
    }
  } else if (const auto* assigned = std::get_if<lb::OrphansAssigned>(&ev)) {
    if (dead_.count(assigned->rank) != 0) {
      fail(t, "orphans assigned to evicted rank " +
                  std::to_string(assigned->rank));
    }
    for (int id : assigned->ids) {
      const auto it = pending_.find(id);
      if (it != pending_.end() && dead_.count(it->second) == 0) {
        fail(t, "orphan " + std::to_string(id) + " assigned to rank " +
                    std::to_string(assigned->rank) +
                    " while still assigned to live rank " +
                    std::to_string(it->second));
      }
      pending_[id] = assigned->rank;
    }
  } else if (const auto* adopted = std::get_if<lb::Adopted>(&ev)) {
    for (int id : adopted->ids) {
      const auto it = pending_.find(id);
      if (it == pending_.end()) {
        fail(t, "rank " + std::to_string(adopted->rank) + " adopted unit " +
                    std::to_string(id) + " it was never assigned");
        continue;
      }
      if (it->second != adopted->rank) {
        fail(t, "unit " + std::to_string(id) + " adopted by rank " +
                    std::to_string(adopted->rank) + " but assigned to rank " +
                    std::to_string(it->second));
      }
      pending_.erase(it);
      ++adopted_total_;
    }
  }
}

void EvictionChecker::on_run_end(sim::Time t) {
  if (!pending_.empty()) {
    fail(t, std::to_string(pending_.size()) +
                " orphan(s) assigned but never adopted (first: unit " +
                std::to_string(pending_.begin()->first) + " -> rank " +
                std::to_string(pending_.begin()->second) + ")");
  }
}

// -------------------------------------------------------- TransportChecker

void TransportChecker::on(sim::Time t, const lb::Event& ev) {
  const auto* delivered = std::get_if<lb::Delivered>(&ev);
  if (delivered == nullptr) return;
  auto& next = next_seq_[{delivered->src, delivered->dst, delivered->tag}];
  if (delivered->seq != next) {
    fail(t, "channel " + std::to_string(delivered->src) + "->" +
                std::to_string(delivered->dst) + " tag " +
                std::to_string(delivered->tag) + " delivered seq " +
                std::to_string(delivered->seq) + ", expected " +
                std::to_string(next));
  }
  next = delivered->seq + 1;
}

// ---------------------------------------------------------- LedgerChecker

LedgerChecker::LedgerChecker(const obs::DecisionLedger* ledger)
    : ledger_(ledger), start_(ledger->records().size()) {}

void LedgerChecker::on(sim::Time, const lb::Event& ev) {
  if (std::holds_alternative<lb::ReportsCollected>(ev)) ++collections_;
}

void LedgerChecker::on_run_end(sim::Time t) {
  const auto& recs = ledger_->records();
  const std::size_t n = recs.size() - start_;
  if (n != collections_) {
    fail(t, "ledger holds " + std::to_string(n) + " record(s) for " +
                std::to_string(collections_) + " report collection(s)");
  }
  for (std::size_t i = start_; i < recs.size(); ++i) {
    const obs::DecisionRecord& rec = recs[i];
    const std::string where = "round " + std::to_string(rec.round) + " (" +
                              obs::gate_name(rec.gate) + ")";
    const std::size_t ranks = rec.remaining.size();
    if (rec.target.size() != ranks) {
      fail(rec.t, where + ": target has " + std::to_string(rec.target.size()) +
                      " rank(s), remaining has " + std::to_string(ranks));
      continue;
    }
    if (rec.gate != obs::Gate::kMove) {
      if (!rec.moves.empty()) {
        fail(rec.t, where + " ordered " + std::to_string(rec.moves.size()) +
                        " move(s); only a move gate may order movement");
      }
      if (rec.target != rec.remaining) {
        fail(rec.t, where + " changed the assignment without moving");
      }
      continue;
    }
    // Moved round: the ordered transfers must account exactly for the
    // per-rank difference between the new target and the reported state.
    std::vector<long> delta(ranks, 0);
    for (const obs::Move& m : rec.moves) {
      if (m.from < 0 || m.to < 0 || m.from >= static_cast<int>(ranks) ||
          m.to >= static_cast<int>(ranks) || m.from == m.to || m.count <= 0) {
        fail(rec.t, where + " ordered a malformed move " + edge(m.from, m.to) +
                        " x" + std::to_string(m.count));
        continue;
      }
      delta[static_cast<std::size_t>(m.from)] -= m.count;
      delta[static_cast<std::size_t>(m.to)] += m.count;
    }
    for (std::size_t r = 0; r < ranks; ++r) {
      if (rec.target[r] - rec.remaining[r] != delta[r]) {
        fail(rec.t, where + " rank " + std::to_string(r) + ": target " +
                        std::to_string(rec.target[r]) + " - remaining " +
                        std::to_string(rec.remaining[r]) +
                        " != ordered flow " + std::to_string(delta[r]));
      }
    }
  }
}

// ---------------------------------------------------------- CrashInjector

void CrashInjector::on(sim::Time, const lb::Event& ev) {
  const auto* collected = std::get_if<lb::ReportsCollected>(&ev);
  if (fired_ || collected == nullptr || collected->round < trigger_round_) {
    return;
  }
  fired_ = true;
  world_.kill(victim_);
}

// ------------------------------------------------------------------ wiring

void add_standard_checkers(InvariantSet& set, const lb::ClusterConfig& cfg) {
  const bool lagged = cfg.termination == lb::Termination::kPhases &&
                      cfg.lb.pipelined;
  set.add(std::make_unique<WorkConservationChecker>());
  set.add(std::make_unique<PipelineLagChecker>(lagged ? 1 : 0));
  set.add(std::make_unique<SliceOwnershipChecker>(std::accumulate(
      cfg.initial_counts.begin(), cfg.initial_counts.end(), 0)));
  set.add(std::make_unique<EvictionChecker>());
  set.add(std::make_unique<TransportChecker>());
  if (cfg.lb.movement == lb::Movement::kRestricted) {
    set.add(std::make_unique<ContiguityChecker>(cfg.slaves));
  }
}

}  // namespace nowlb::check
