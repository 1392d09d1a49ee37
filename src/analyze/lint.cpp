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
        fd.key = "nolint#" + std::to_string(li + 1);
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
    return a.key < b.key;
  });
}

std::string baseline_line(const Finding& f) {
  return std::string(f.rule->code) + "\t" + f.rel_path + "\t" + f.key;
}

}  // namespace

LintResult run_lint(const LintOptions& opts) {
  const fs::path root(opts.root);
  if (!fs::is_directory(root))
    throw std::runtime_error("lint root is not a directory: " + opts.root);

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
    run_determinism_rules(f, opts.config, all);
    sups[&f] = std::move(s);
  }
  run_layering_rules(files, opts.config, all);

  run_flow_rules(files, opts.config, all);

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
      int n = 0;
      for (const auto& s : sups[&f]) {
        if (!s.has_reason) continue;  // malformed: already an S001
        if (s.rule == kRuleNolintStale) continue;
        ++n;
        if (s.used) continue;
        Finding fd;
        fd.rule = s002;
        fd.rel_path = f.rel_path;
        fd.line = s.line;
        fd.message = "NOLINT(" + s.rule + ") suppresses no finding";
        fd.key = s.rule + "#stale#" + std::to_string(n);
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

  if (opts.update_baseline && !opts.baseline_path.empty()) {
    std::ofstream out(opts.baseline_path, std::ios::trunc);
    if (!out)
      throw std::runtime_error("cannot write baseline " + opts.baseline_path);
    out << to_baseline(kept);
  }

  // Baseline: a multiset of (rule, file, key) lines; each entry absorbs
  // one matching finding.
  std::map<std::string, int> baseline;
  if (!opts.baseline_path.empty() && !opts.update_baseline) {
    std::ifstream in(opts.baseline_path);
    // A missing baseline file is an empty baseline (first run).
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      ++baseline[line];
    }
  }
  for (auto& fd : kept) {
    auto it = baseline.find(baseline_line(fd));
    if (it != baseline.end() && it->second > 0) {
      --it->second;
      res.baselined.push_back(std::move(fd));
    } else {
      res.fresh.push_back(std::move(fd));
    }
  }
  for (const auto& [line, count] : baseline)
    for (int i = 0; i < count; ++i) res.stale_baseline.push_back(line);
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

std::string to_baseline(std::vector<Finding> findings) {
  std::vector<std::string> lines;
  lines.reserve(findings.size());
  for (const auto& f : findings) lines.push_back(baseline_line(f));
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  out << "# nowlb-lint baseline — pre-existing findings, burned down over\n"
         "# time. One finding per line: <rule>\\t<file>\\t<key>. Regenerate\n"
         "# with: nowlb-lint --root=src --baseline=<this file> "
         "--update-baseline\n";
  for (const auto& l : lines) out << l << "\n";
  return out.str();
}

}  // namespace nowlb::analyze
