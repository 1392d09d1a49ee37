// Rule catalog for nowlb-lint.
//
// Four families, one contract each:
//   D (determinism)  — the simulator must be a pure function of its seeds.
//   L (layering)     — the include graph must respect the module order.
//   P (protocol)     — every wire tag must be handled somewhere.
//   F (flow)         — tag send/recv sites must pair up across modules.
// Plus S (suppression hygiene): a NOLINT without a reason — or one that no
// longer suppresses anything — is itself a finding, so suppressions stay
// auditable.
//
// Findings are identified by (rule, file, key) where `key` is line-number
// independent: that triple is what the baseline file stores, so baselined
// findings survive unrelated edits to the same file.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyze/lex.hpp"

namespace nowlb::analyze {

struct Rule {
  const char* code;  // "D001"
  const char* name;  // "nowlb-wallclock" — the NOLINT spelling
  const char* hint;  // one-line fix hint appended to every finding
};

/// The catalog, in report order. Stable: rule codes are part of the
/// baseline format.
const std::vector<Rule>& rule_catalog();

/// Lookup by NOLINT name ("nowlb-wallclock"). Null if unknown.
const Rule* rule_by_name(const std::string& name);

inline constexpr const char* kRuleWallclock = "nowlb-wallclock";
inline constexpr const char* kRuleEntropy = "nowlb-entropy";
inline constexpr const char* kRuleUnordered = "nowlb-unordered";
inline constexpr const char* kRuleLayer = "nowlb-layer";
inline constexpr const char* kRuleCycle = "nowlb-cycle";
inline constexpr const char* kRuleTagUnhandled = "nowlb-tag-unhandled";
inline constexpr const char* kRuleTagNoRecv = "nowlb-tag-norecv";
inline constexpr const char* kRuleTagNoOrigin = "nowlb-tag-norigin";
inline constexpr const char* kRuleTagAsym = "nowlb-tag-asym";
inline constexpr const char* kRuleNolint = "nowlb-nolint";
inline constexpr const char* kRuleNolintStale = "nowlb-nolint-stale";

struct Finding {
  const Rule* rule = nullptr;
  std::string rel_path;  // relative to the lint root
  int line = 0;
  std::string message;
  /// Line-independent fingerprint used for baseline matching. For token
  /// rules this is "<token>#<n>" (n-th occurrence in the file); for
  /// layering it names the offending include; for protocol rules the tag.
  std::string key;
};

struct RuleConfig {
  /// Files (root-relative) where unordered containers are allowed. Each
  /// entry must carry a justification in the config source — this is the
  /// "explicit whitelist" for D003.
  std::vector<std::string> unordered_whitelist;
  /// The one module allowed to touch raw entropy sources (D002 exemption).
  std::string entropy_home = "util/rng.hpp";
  /// Module -> layer rank. Includes may only point at strictly lower
  /// ranks, or stay within the module. Unlisted modules are not checked.
  std::map<std::string, int> layer_of;
  /// Endpoint pairs for F002: files (root-relative) forming a
  /// master <-> slave conversation. A tag sent from inside a pair must be
  /// received inside the same pair, and vice versa.
  std::vector<std::pair<std::string, std::string>> endpoint_pairs;
};

/// The repo's layering: util < msg < sim < obs < data < lb < load/loop <
/// apps < exp/check/analyze (see DESIGN.md §11).
RuleConfig default_config();

/// D-rules: scan one file for wall-clock, entropy, and unordered-container
/// tokens. Appends to `out`.
void run_determinism_rules(const ScannedFile& f, const RuleConfig& cfg,
                           std::vector<Finding>& out);

/// P+F-rules: cross-module tag-flow graph — unreferenced tags (P001),
/// tags never examined on the receive side (P002), tags received but
/// never sent (F001), and master/slave endpoint asymmetry (F002).
void run_flow_rules(const std::vector<ScannedFile>& files,
                    const RuleConfig& cfg, std::vector<Finding>& out);

}  // namespace nowlb::analyze
