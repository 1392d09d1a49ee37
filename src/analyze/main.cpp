// nowlb-lint — repo-specific determinism, layering, and suppression linter.
//
//   nowlb-lint [--root=]src [--label=src] [--list-rules]
//
// Exit 0: clean. Exit 1: findings. Exit 2: usage.
#include <cstdio>
#include <exception>
#include <string>

#include "analyze/lint.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: nowlb-lint [--root=]DIR [options]\n"
    "  --label=NAME        path prefix in reports (default: the root)\n"
    "  --list-rules        print the rule catalog and exit\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace nowlb::analyze;
  const nowlb::Cli cli(argc, argv, {"root", "label", "list-rules"}, kUsage);
  if (cli.has("list-rules")) {
    for (const auto& r : rule_catalog())
      std::printf("%s  %-20s %s\n", r.code, r.name, r.hint);
    return 0;
  }
  std::string root = cli.get("root", "");
  const auto& positional = cli.positional();
  if (root.empty() && positional.size() == 1) {
    root = positional.front();
  } else if (!positional.empty()) {
    std::fprintf(stderr, "nowlb-lint: unexpected argument '%s'\n",
                 positional.back().c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (root.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::string label = cli.get("label", root);
  // Strip a trailing slash so labels render as "src/foo.hpp".
  if (!label.empty() && label.back() == '/') label.pop_back();

  try {
    const LintResult res = run_lint(root);
    std::fputs(format_findings(res.findings, label).c_str(), stdout);
    std::printf("nowlb-lint: %d files, %zu finding%s\n", res.files_scanned,
                res.findings.size(), res.findings.size() == 1 ? "" : "s");
    return res.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nowlb-lint: %s\n", e.what());
    return 2;
  }
}
