#include "obs/ledger.hpp"

#include <cstdio>
#include <sstream>
#include <type_traits>

namespace nowlb::obs {

const char* gate_name(Gate g) {
  switch (g) {
    case Gate::kMove:
      return "move";
    case Gate::kBelowThreshold:
      return "below-threshold";
    case Gate::kNotProfitable:
      return "not-profitable";
    case Gate::kHold:
      return "hold";
    case Gate::kRecoveryFreeze:
      return "recovery-freeze";
    case Gate::kPhaseEnd:
      return "phase-end";
    case Gate::kFinalReports:
      return "final-reports";
  }
  return "?";
}

bool planner_ran(Gate g) {
  return g == Gate::kMove || g == Gate::kBelowThreshold ||
         g == Gate::kNotProfitable || g == Gate::kHold;
}

namespace {

std::string fmt(double v, const char* spec = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

template <class T>
std::string join(const std::vector<T>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ' ';
    if constexpr (std::is_floating_point_v<T>) {
      os << fmt(v[i]);
    } else {
      os << v[i];
    }
  }
  os << ']';
  return os.str();
}

}  // namespace

std::string DecisionLedger::explain_line(const DecisionRecord& r) {
  std::ostringstream os;
  os << "round " << r.round << " t=" << fmt(to_seconds(r.t), "%.6f")
     << "s gate=" << gate_name(r.gate);
  if (!r.reason.empty()) os << " (" << r.reason << ")";
  os << "\n  rates raw=" << join(r.raw_rates) << " filtered=" << join(r.rates)
     << " work=" << join(r.remaining) << " period=" << fmt(r.period_s) << "s";
  if (r.gate == Gate::kMove) {
    os << "\n  moves:";
    for (const Move& m : r.moves) {
      os << ' ' << m.from << "->" << m.to << " x" << m.count;
    }
    os << " target=" << join(r.target)
       << "\n  projected " << fmt(r.projected_current_s) << "s -> "
       << fmt(r.projected_new_s) << "s (improvement "
       << fmt(r.improvement * 100.0, "%.2f") << "%, move cost "
       << fmt(r.est_move_cost_s) << "s)";
  } else if (r.gate == Gate::kBelowThreshold || r.gate == Gate::kNotProfitable) {
    os << "\n  projected " << fmt(r.projected_current_s) << "s -> "
       << fmt(r.projected_new_s) << "s (improvement "
       << fmt(r.improvement * 100.0, "%.2f") << "%, move cost "
       << fmt(r.est_move_cost_s) << "s) -- cancelled";
  }
  return os.str();
}

std::string DecisionLedger::explain() const {
  std::ostringstream os;
  for (const DecisionRecord& r : records_) {
    os << explain_line(r) << '\n';
  }
  return os.str();
}

}  // namespace nowlb::obs
