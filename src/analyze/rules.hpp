// Rule catalog for nowlb-lint.
//
// Two families, one contract each:
//   D (determinism)  — the simulator must be a pure function of its seeds.
//   L (layering)     — the include graph must respect the module order.
// Plus S (suppression hygiene): a NOLINT without a reason — or one that no
// longer suppresses anything — is itself a finding, so suppressions stay
// auditable.
//
// Message tags are not linted. A process that finishes with a message
// still queued fails the run (sim::World), and -Wunused-const-variable
// fails the build on a tag a .cpp file declares and never uses.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analyze/lex.hpp"

namespace nowlb::analyze {

struct Rule {
  const char* code;  // "D001"
  const char* name;  // "nowlb-wallclock" — the NOLINT spelling
  const char* hint;  // one-line fix hint appended to every finding
};

/// The catalog, in report order.
const std::vector<Rule>& rule_catalog();

/// Lookup by NOLINT name ("nowlb-wallclock"). Null if unknown.
const Rule* rule_by_name(const std::string& name);

inline constexpr const char* kRuleWallclock = "nowlb-wallclock";
inline constexpr const char* kRuleEntropy = "nowlb-entropy";
inline constexpr const char* kRuleUnordered = "nowlb-unordered";
inline constexpr const char* kRuleLayer = "nowlb-layer";
inline constexpr const char* kRuleCycle = "nowlb-cycle";
inline constexpr const char* kRuleNolint = "nowlb-nolint";
inline constexpr const char* kRuleNolintStale = "nowlb-nolint-stale";

struct Finding {
  const Rule* rule = nullptr;
  std::string rel_path;  // relative to the lint root
  int line = 0;
  std::string message;
};

/// The repo's layering, module -> rank: util < msg < sim < obs < data <
/// lb < load/loop < apps < exp/check < analyze/perf (see DESIGN.md §11).
/// Includes may only point at strictly lower ranks, or stay within the
/// module. Unlisted modules are not checked.
const std::map<std::string, int>& layer_of();

/// D-rules: scan one file for wall-clock, entropy, and unordered-container
/// tokens. Appends to `out`.
void run_determinism_rules(const ScannedFile& f, std::vector<Finding>& out);

}  // namespace nowlb::analyze
