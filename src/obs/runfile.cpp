#include "obs/runfile.hpp"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace nowlb::obs {

namespace {

void put(std::ostream& os, double v) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
}
void put(std::ostream& os, long v) { os << v; }
void put(std::ostream& os, const Move& m) {
  os << m.from << ':' << m.to << ':' << m.count;
}

template <class T>
void put_list(std::ostream& os, const std::vector<T>& v) {
  os << ' ';
  if (v.empty()) os << '-';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    put(os, v[i]);
  }
}

/// Whole-token parsers: trailing junk fails, and strtod reads back the
/// "inf" and "nan" the writer prints for non-finite values.
bool parse(const std::string& s, double& v) {
  char* end = nullptr;
  v = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0';
}
bool parse(const std::string& s, long& v) {
  char* end = nullptr;
  v = std::strtol(s.c_str(), &end, 10);
  return !s.empty() && *end == '\0';
}
bool parse(const std::string& s, Move& m) {
  int used = 0;
  return std::sscanf(s.c_str(), "%d:%d:%ld%n", &m.from, &m.to, &m.count,
                     &used) == 3 &&
         used == static_cast<int>(s.size());
}

template <class T>
bool parse_list(const std::string& s, std::vector<T>& out) {
  if (s == "-") return true;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    T v{};
    if (!parse(s.substr(pos, comma - pos), v)) return false;
    out.push_back(v);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

/// The rest of a directive line after one separating space.
std::string rest_of_line(std::istream& ls) {
  std::string rest;
  std::getline(ls, rest);
  if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
  return rest;
}

/// A line of MetricsRegistry::prometheus_text(): a HELP or TYPE comment,
/// or a sample "<name>[{labels}] <value>".
bool metric_line_ok(const std::string& line) {
  if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    return true;
  }
  const std::size_t space = line.rfind(' ');
  double value = 0;
  return space != std::string::npos && space > 0 && line.front() != '#' &&
         parse(line.substr(space + 1), value);
}

/// Interns strings for the lifetime of a LoadedRun (TraceBus stores
/// pointers, not copies).
class Interner {
 public:
  explicit Interner(std::deque<std::string>& pool) : pool_(pool) {}

  const char* operator()(const std::string& s) {
    auto it = known_.find(s);
    if (it != known_.end()) return it->second;
    pool_.push_back(s);
    const char* p = pool_.back().c_str();
    known_.emplace(s, p);
    return p;
  }

 private:
  std::deque<std::string>& pool_;
  std::map<std::string, const char*> known_;
};

bool fail(std::string& error, int line_no, const std::string& what) {
  std::ostringstream os;
  os << "run file line " << line_no << ": " << what;
  error = os.str();
  return false;
}

/// Parses the fields of a ledger line into `r`; returns what is wrong with
/// them, or null.
const char* parse_ledger(std::istream& ls, DecisionRecord& r) {
  long long t = 0;
  int gate = -1;
  bool ok = static_cast<bool>(ls >> r.round >> t >> gate);
  for (double* v : {&r.improvement, &r.projected_current_s,
                    &r.projected_new_s, &r.est_move_cost_s, &r.period_s}) {
    std::string token;
    ok = ok && (ls >> token) && parse(token, *v);
  }
  std::string raw, rates, remaining, target, moves;
  ok = ok && (ls >> raw >> rates >> remaining >> target >> moves) &&
       parse_list(raw, r.raw_rates) && parse_list(rates, r.rates) &&
       parse_list(remaining, r.remaining) && parse_list(target, r.target) &&
       parse_list(moves, r.moves);
  if (!ok) return "malformed ledger line";
  if (gate < 0 || gate > static_cast<int>(Gate::kFinalReports)) {
    return "ledger gate out of range";
  }
  const std::size_t ranks = r.raw_rates.size();
  if (r.rates.size() != ranks || r.remaining.size() != ranks ||
      r.target.size() != ranks) {
    return "ledger per-rank vectors differ in length";
  }
  r.t = t;
  r.gate = static_cast<Gate>(gate);
  r.reason = rest_of_line(ls);
  return nullptr;
}

}  // namespace

void write_runfile(std::ostream& os, const TraceBus& trace,
                   const DecisionLedger& ledger, const std::string& metrics,
                   const std::map<std::string, std::string>& meta) {
  os << "nowlb-run 2\n";
  for (const auto& [key, value] : meta) {
    os << "meta " << key << "=" << value << "\n";
  }
  for (const auto& [host, name] : trace.hosts()) {
    os << "host " << host << " " << name << "\n";
  }
  for (const auto& [key, name] : trace.lanes()) {
    os << "lane " << key.first << " " << key.second << " " << name << "\n";
  }
  for (const DecisionRecord& r : ledger.records()) {
    os << "ledger " << r.round << " " << r.t << " "
       << static_cast<int>(r.gate);
    for (double v : {r.improvement, r.projected_current_s, r.projected_new_s,
                     r.est_move_cost_s, r.period_s}) {
      os << " ";
      put(os, v);
    }
    put_list(os, r.raw_rates);
    put_list(os, r.rates);
    put_list(os, r.remaining);
    put_list(os, r.target);
    put_list(os, r.moves);
    os << " " << r.reason << "\n";
  }
  for (const TraceEvent& e : trace.events()) {
    os << "e " << (e.phase == TraceEvent::Phase::kComplete ? 'c' : 'i')
       << " " << e.t << " " << e.dur << " " << e.host << " " << e.lane
       << " " << e.cat << " " << e.name;
    for (const TraceArg* a : {&e.a0, &e.a1, &e.a2}) {
      if (a->key == nullptr) continue;
      os << " " << a->key << "=";
      put(os, a->value);
    }
    os << "\n";
  }
  std::size_t metric_lines = 0;
  std::istringstream dump(metrics);
  for (std::string line; std::getline(dump, line); ++metric_lines) {
    os << "metric " << line << "\n";
  }
  os << "end events=" << trace.events().size()
     << " ledger=" << ledger.records().size() << " metrics=" << metric_lines
     << "\n";
}

bool load_runfile(std::istream& is, LoadedRun& out, std::string& error) {
  Interner intern(out.pool);
  std::string line;
  int line_no = 0;

  if (!std::getline(is, line)) return fail(error, 1, "empty input");
  ++line_no;
  if (line != "nowlb-run 2") {
    return fail(error, line_no, "bad header (want \"nowlb-run 2\")");
  }

  std::size_t events = 0;
  std::size_t ledger_lines = 0;
  std::size_t metric_lines = 0;
  bool saw_end = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (saw_end) return fail(error, line_no, "content after end trailer");
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    if (directive == "meta") {
      const std::string rest = rest_of_line(ls);
      const std::size_t eq = rest.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail(error, line_no, "meta needs key=value");
      }
      out.meta[rest.substr(0, eq)] = rest.substr(eq + 1);
    } else if (directive == "host") {
      int host = 0;
      const bool ok = static_cast<bool>(ls >> host);
      const std::string name = rest_of_line(ls);
      if (!ok || name.empty()) {
        return fail(error, line_no, "malformed host line");
      }
      out.trace.name_host(host, name);
    } else if (directive == "lane") {
      int host = 0;
      int lane = 0;
      const bool ok = static_cast<bool>(ls >> host >> lane);
      const std::string name = rest_of_line(ls);
      if (!ok || name.empty()) {
        return fail(error, line_no, "malformed lane line");
      }
      out.trace.name_lane(host, lane, name);
    } else if (directive == "ledger") {
      DecisionRecord r;
      if (const char* bad = parse_ledger(ls, r)) {
        return fail(error, line_no, bad);
      }
      out.ledger.append(std::move(r));
      ++ledger_lines;
    } else if (directive == "e") {
      char phase = 0;
      long long t = 0;
      long long dur = 0;
      int host = 0;
      int lane = 0;
      std::string cat;
      std::string name;
      if (!(ls >> phase >> t >> dur >> host >> lane >> cat >> name) ||
          (phase != 'i' && phase != 'c')) {
        return fail(error, line_no, "malformed event line");
      }
      TraceArg args[3];
      int nargs = 0;
      std::string kv;
      while (ls >> kv) {
        if (nargs >= 3) return fail(error, line_no, "more than 3 args");
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          return fail(error, line_no, "event arg needs key=value");
        }
        double value = 0;
        if (!parse(kv.substr(eq + 1), value)) {
          return fail(error, line_no, "bad numeric arg value");
        }
        args[nargs++] = {intern(kv.substr(0, eq)), value};
      }
      const char* c = intern(cat);
      const char* n = intern(name);
      if (phase == 'c') {
        out.trace.complete(t, t + dur, host, lane, c, n, args[0], args[1],
                           args[2]);
      } else {
        out.trace.instant(t, host, lane, c, n, args[0], args[1], args[2]);
      }
      ++events;
    } else if (directive == "metric") {
      const std::string text = rest_of_line(ls);
      if (!metric_line_ok(text)) return fail(error, line_no, "bad metric line");
      out.metrics += text;
      out.metrics += '\n';
      ++metric_lines;
    } else if (directive == "end") {
      std::size_t want_ev = 0;
      std::size_t want_led = 0;
      std::size_t want_met = 0;
      std::string ev;
      std::string led;
      std::string met;
      if (!(ls >> ev >> led >> met) ||
          std::sscanf(ev.c_str(), "events=%zu", &want_ev) != 1 ||
          std::sscanf(led.c_str(), "ledger=%zu", &want_led) != 1 ||
          std::sscanf(met.c_str(), "metrics=%zu", &want_met) != 1) {
        return fail(error, line_no, "malformed end trailer");
      }
      if (want_ev != events || want_led != ledger_lines ||
          want_met != metric_lines) {
        std::ostringstream os;
        os << "count mismatch (file truncated?): have " << events
           << " events / " << ledger_lines << " ledger / " << metric_lines
           << " metric lines, trailer says " << want_ev << " / " << want_led
           << " / " << want_met;
        return fail(error, line_no, os.str());
      }
      saw_end = true;
    } else {
      return fail(error, line_no, "unknown directive \"" + directive + "\"");
    }
  }
  if (!saw_end) return fail(error, line_no, "missing end trailer");
  return true;
}

}  // namespace nowlb::obs
