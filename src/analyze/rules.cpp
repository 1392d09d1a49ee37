#include "analyze/rules.hpp"

#include <iterator>

namespace nowlb::analyze {

namespace {

// clang-format off
const std::vector<Rule> kCatalog = {
    {"D001", kRuleWallclock,
     "virtual time only: use sim::Engine::now() / sim::Time"},
    {"D002", kRuleEntropy,
     "draw from an explicitly seeded nowlb::Rng (util/rng.hpp)"},
    {"D003", kRuleUnordered,
     "iteration order is unspecified: use std::map / sorted vector, or "
     "NOLINT with a reason"},
    {"L001", kRuleLayer,
     "depend downward only (util < msg < obs < sim < data < lb < load/loop "
     "< apps < exp/check); move shared code down a layer"},
    {"L002", kRuleCycle,
     "break the include cycle with a forward declaration or an interface "
     "header"},
    {"S001", kRuleNolint,
     "write // NOLINT(nowlb-<rule>: <reason>) — the reason is mandatory"},
    {"S002", kRuleNolintStale,
     "this suppression no longer suppresses any finding; delete it"},
};
// clang-format on

const Rule* rule(const char* name) {
  for (const auto& r : kCatalog)
    if (std::string(r.name) == name) return &r;
  return nullptr;
}

struct TokenBan {
  const char* token;
  const char* what;
  bool call_only;  // only flag when spelled as a call: `tok (`
};

// D001 — wall-clock and OS time sources. Simulated code must read
// Engine::now(); any of these makes a run depend on the host.
const TokenBan kWallclock[] = {
    {"system_clock", "std::chrono::system_clock", false},
    {"steady_clock", "std::chrono::steady_clock", false},
    {"high_resolution_clock", "std::chrono::high_resolution_clock", false},
    {"gettimeofday", "gettimeofday()", false},
    {"clock_gettime", "clock_gettime()", false},
    {"timespec_get", "timespec_get()", false},
    {"localtime", "localtime()", false},
    {"localtime_r", "localtime_r()", false},
    {"gmtime", "gmtime()", false},
    {"gmtime_r", "gmtime_r()", false},
    {"time", "time()", true},
    {"clock", "clock()", true},
};

// D002 — entropy sources and default-seeded engines. Everything stochastic
// must flow from an explicit seed through nowlb::Rng, the one module
// allowed to touch them.
constexpr const char* kEntropyHome = "util/rng.hpp";
const TokenBan kEntropy[] = {
    {"random_device", "std::random_device", false},
    {"mt19937", "std::mt19937", false},
    {"mt19937_64", "std::mt19937_64", false},
    {"default_random_engine", "std::default_random_engine", false},
    {"minstd_rand", "std::minstd_rand", false},
    {"minstd_rand0", "std::minstd_rand0", false},
    {"ranlux24", "std::ranlux24", false},
    {"ranlux48", "std::ranlux48", false},
    {"knuth_b", "std::knuth_b", false},
    {"random_shuffle", "std::random_shuffle", false},
    {"rand", "rand()", true},
    {"srand", "srand()", true},
};

// D003 — unordered associative containers. Hash iteration order is
// unspecified and libstdc++-version dependent; on any output or decision
// path it silently breaks bit-reproducibility. The one exemption is a
// NOLINT with a reason.
const char* const kUnordered[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

void scan_tokens(const ScannedFile& f, const Rule* r, const TokenBan* bans,
                 std::size_t n_bans, std::vector<Finding>& out) {
  for (int li = 0; li < f.line_count(); ++li) {
    const std::string& line = f.code[li];
    for (std::size_t b = 0; b < n_bans; ++b) {
      const TokenBan& ban = bans[b];
      const bool hit = ban.call_only ? has_call(line, ban.token)
                                     : find_ident(line, ban.token) !=
                                           std::string::npos;
      if (!hit) continue;
      Finding fd;
      fd.rule = r;
      fd.rel_path = f.rel_path;
      fd.line = li + 1;
      fd.message = std::string(ban.what) + " on a simulation path";
      out.push_back(std::move(fd));
    }
  }
}

}  // namespace

const std::vector<Rule>& rule_catalog() { return kCatalog; }

const Rule* rule_by_name(const std::string& name) {
  return rule(name.c_str());
}

const std::map<std::string, int>& layer_of() {
  static const std::map<std::string, int> kLayers = {
      {"util", 0}, {"msg", 1},  {"obs", 2},  {"sim", 3},
      {"data", 4}, {"lb", 5},   {"load", 6}, {"loop", 6},
      {"apps", 7}, {"exp", 8},  {"check", 8}, {"analyze", 9},
      {"perf", 9},
  };
  return kLayers;
}

void run_determinism_rules(const ScannedFile& f, std::vector<Finding>& out) {
  scan_tokens(f, rule(kRuleWallclock), kWallclock, std::size(kWallclock),
              out);
  if (f.rel_path != kEntropyHome)
    scan_tokens(f, rule(kRuleEntropy), kEntropy, std::size(kEntropy), out);

  const Rule* r = rule(kRuleUnordered);
  for (int li = 0; li < f.line_count(); ++li) {
    for (const char* tok : kUnordered) {
      if (find_ident(f.code[li], tok) == std::string::npos) continue;
      Finding fd;
      fd.rule = r;
      fd.rel_path = f.rel_path;
      fd.line = li + 1;
      fd.message = std::string("std::") + tok + " on a simulation path";
      out.push_back(std::move(fd));
    }
  }
}

}  // namespace nowlb::analyze
