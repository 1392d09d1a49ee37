// nowlb-lint driver: walk a source root, run every rule family, apply
// inline NOLINT suppressions, and render the result. Library API so tests
// can run the linter in-process.
#pragma once

#include <string>
#include <vector>

#include "analyze/rules.hpp"

namespace nowlb::analyze {

struct LintResult {
  std::vector<Finding> findings;  // sorted by path, line, code, message
  int files_scanned = 0;

  bool clean() const { return findings.empty(); }
};

/// Scan and lint every source file under `root` (e.g. "src" or an
/// absolute path). Throws std::runtime_error on an unreadable root.
LintResult run_lint(const std::string& root);

/// Render findings the way the CLI prints them (one line per finding,
/// `<label>/<file>:<line>: [<code> <name>] <message>. hint: <hint>`);
/// a label of "src" makes them read `src/sim/x.hpp:12`.
std::string format_findings(const std::vector<Finding>& findings,
                            const std::string& label);

}  // namespace nowlb::analyze
