#include "analyze/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

#include "analyze/include_graph.hpp"

namespace nowlb::analyze {

namespace fs = std::filesystem;

namespace {

bool source_extension(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One parsed suppression comment.
struct Suppression {
  int line = 0;        // line the comment sits on
  bool next_line = false;
  std::string rule;    // "nowlb-unordered"
  bool has_reason = false;
  bool used = false;
};

/// Parse suppression groups — the NOLINT and NOLINTNEXTLINE forms — out
/// of a file's comment text. Malformed groups (unknown rule, or missing
/// reason) become S001 findings directly; the bare word without an open
/// paren suppresses nothing, so prose mentions are ignored.
std::vector<Suppression> parse_suppressions(const ScannedFile& f,
                                            std::vector<Finding>& out) {
  std::vector<Suppression> sups;
  const Rule* s001 = rule_by_name(kRuleNolint);
  for (int li = 0; li < f.line_count(); ++li) {
    const std::string& com = f.comments[li];
    for (std::size_t pos = com.find("NOLINT"); pos != std::string::npos;
         pos = com.find("NOLINT", pos + 6)) {
      bool next_line = com.compare(pos, 14, "NOLINTNEXTLINE") == 0;
      std::size_t open = pos + (next_line ? 14 : 6);
      auto bad = [&](const std::string& why) {
        Finding fd;
        fd.rule = s001;
        fd.rel_path = f.rel_path;
        fd.line = li + 1;
        fd.message = why;
        out.push_back(std::move(fd));
      };
      if (open >= com.size() || com[open] != '(') continue;
      const std::size_t close = com.find(')', open);
      if (close == std::string::npos) {
        bad("unterminated NOLINT(");
        continue;
      }
      const std::string body = com.substr(open + 1, close - open - 1);
      const std::size_t colon = body.find(':');
      const std::string rule_part =
          colon == std::string::npos ? body : body.substr(0, colon);
      std::string reason =
          colon == std::string::npos ? "" : body.substr(colon + 1);
      const auto ns = reason.find_first_not_of(" \t");
      reason = ns == std::string::npos ? "" : reason.substr(ns);

      // Trim the rule name.
      std::string rule_name = rule_part;
      rule_name.erase(0, rule_name.find_first_not_of(" \t"));
      const auto re = rule_name.find_last_not_of(" \t");
      rule_name = re == std::string::npos ? "" : rule_name.substr(0, re + 1);

      if (rule_by_name(rule_name) == nullptr) {
        bad("NOLINT names unknown rule '" + rule_name + "'");
        continue;
      }
      if (reason.empty()) {
        bad("NOLINT(" + rule_name + ") has no reason");
        continue;
      }
      Suppression s;
      s.line = li + 1;
      s.next_line = next_line;
      s.rule = rule_name;
      s.has_reason = true;
      sups.push_back(s);
    }
  }
  return sups;
}

void sort_findings(std::vector<Finding>& v) {
  std::sort(v.begin(), v.end(), [](const Finding& a, const Finding& b) {
    if (a.rel_path != b.rel_path) return a.rel_path < b.rel_path;
    if (a.line != b.line) return a.line < b.line;
    if (std::string(a.rule->code) != b.rule->code)
      return std::string(a.rule->code) < b.rule->code;
    return a.message < b.message;
  });
}

}  // namespace

LintResult run_lint(const std::string& root_dir) {
  const fs::path root(root_dir);
  if (!fs::is_directory(root))
    throw std::runtime_error("lint root is not a directory: " + root_dir);

  // Deterministic file order: collect, sort, then scan.
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && source_extension(entry.path()))
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<ScannedFile> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    std::string rel = fs::relative(p, root).generic_string();
    files.push_back(scan_source(std::move(rel), slurp(p)));
  }

  std::vector<Finding> all;
  std::map<const ScannedFile*, std::vector<Suppression>> sups;
  for (const auto& f : files) {
    auto s = parse_suppressions(f, all);
    run_determinism_rules(f, all);
    sups[&f] = std::move(s);
  }
  run_layering_rules(files, all);

  // Apply inline suppressions: a finding dies if a matching-rule NOLINT
  // sits on its line, or a NOLINTNEXTLINE on the line above.
  std::map<std::string, const ScannedFile*> by_path;
  for (const auto& f : files) by_path[f.rel_path] = &f;
  auto apply = [&](std::vector<Finding>& in) {
    std::vector<Finding> kept;
    for (auto& fd : in) {
      bool suppressed = false;
      const auto it = by_path.find(fd.rel_path);
      if (it != by_path.end()) {
        for (auto& s : sups[it->second]) {
          if (s.rule != fd.rule->name) continue;
          const int target = s.next_line ? s.line + 1 : s.line;
          if (target == fd.line) {
            suppressed = true;
            s.used = true;
            break;
          }
        }
      }
      if (!suppressed) kept.push_back(std::move(fd));
    }
    return kept;
  };
  std::vector<Finding> kept = apply(all);

  // S002 — stale suppressions: a well-formed NOLINT that suppressed
  // nothing in this run. Emitted after the first application round so a
  // `NOLINT(nowlb-nolint-stale: reason)` can suppress its own finding
  // (one level; stale-rule suppressions are never themselves flagged).
  {
    const Rule* s002 = rule_by_name(kRuleNolintStale);
    std::vector<Finding> stale;
    for (const auto& f : files) {
      for (const auto& s : sups[&f]) {
        if (!s.has_reason) continue;  // malformed: already an S001
        if (s.rule == kRuleNolintStale) continue;
        if (s.used) continue;
        Finding fd;
        fd.rule = s002;
        fd.rel_path = f.rel_path;
        fd.line = s.line;
        fd.message = "NOLINT(" + s.rule + ") suppresses no finding";
        stale.push_back(std::move(fd));
      }
    }
    std::vector<Finding> stale_kept = apply(stale);
    kept.insert(kept.end(), std::make_move_iterator(stale_kept.begin()),
                std::make_move_iterator(stale_kept.end()));
  }
  sort_findings(kept);

  LintResult res;
  res.files_scanned = static_cast<int>(files.size());
  res.findings = std::move(kept);
  return res;
}

std::string format_findings(const std::vector<Finding>& findings,
                            const std::string& label) {
  std::ostringstream out;
  for (const auto& f : findings) {
    out << (label.empty() ? f.rel_path : label + "/" + f.rel_path) << ":"
        << f.line << ": [" << f.rule->code << " " << f.rule->name << "] "
        << f.message << ". hint: " << f.rule->hint << "\n";
  }
  return out.str();
}

}  // namespace nowlb::analyze
