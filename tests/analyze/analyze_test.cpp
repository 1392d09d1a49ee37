// nowlb-lint's own test suite: lexer soundness, rule behaviour against the
// deliberately-violating fixture tree (golden output), suppression and
// baseline mechanics. NOWLB_FIXTURE_DIR points at tests/analyze/fixtures.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analyze/lex.hpp"
#include "analyze/lint.hpp"
#include "analyze/rules.hpp"

namespace fs = std::filesystem;
using namespace nowlb::analyze;

namespace {

std::string fixture_root() {
  return std::string(NOWLB_FIXTURE_DIR) + "/src";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(Lex, BlanksCommentsAndStrings) {
  const std::string src =
      "int a = rand(); // rand() in a comment\n"
      "const char* s = \"rand()\";\n"
      "/* rand()\n"
      "   rand() */ int b = 0;\n";
  const ScannedFile f = scan_source("util/x.cpp", src);
  EXPECT_NE(find_ident(f.code[0], "rand"), std::string::npos);
  EXPECT_EQ(find_ident(f.code[1], "rand"), std::string::npos);
  EXPECT_EQ(find_ident(f.code[2], "rand"), std::string::npos);
  EXPECT_EQ(find_ident(f.code[3], "rand"), std::string::npos);
  // Comment text is preserved for NOLINT parsing.
  EXPECT_NE(f.comments[0].find("rand() in a comment"), std::string::npos);
  // Column positions survive blanking ("   rand() */ int b = 0;").
  EXPECT_EQ(f.code[3].find("int b"), 13u);
}

TEST(Lex, RawStringsAndDigitSeparators) {
  const std::string src =
      "auto j = R\"(rand() \"quoted\" )\" ;\n"
      "long n = 1'000'000; int after = rand();\n";
  const ScannedFile f = scan_source("util/x.cpp", src);
  EXPECT_EQ(find_ident(f.code[0], "rand"), std::string::npos);
  // The digit separator must not open a char literal and swallow the rest.
  EXPECT_NE(find_ident(f.code[1], "rand"), std::string::npos);
}

TEST(Lex, IncludeExtraction) {
  const ScannedFile f = scan_source(
      "sim/x.hpp",
      "#pragma once\n#include <vector>\n  #  include \"util/rng.hpp\"\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_TRUE(f.includes[0].angled);
  EXPECT_EQ(f.includes[1].path, "util/rng.hpp");
  EXPECT_EQ(f.includes[1].line, 3);
  EXPECT_FALSE(f.includes[1].angled);
}

TEST(Lex, CallDetection) {
  EXPECT_TRUE(has_call("long t = time(nullptr);", "time"));
  EXPECT_TRUE(has_call("long t = time (0);", "time"));
  EXPECT_FALSE(has_call("long t = e.time();", "time"));     // member
  EXPECT_FALSE(has_call("long t = e->time();", "time"));    // member
  EXPECT_FALSE(has_call("double move_time_s = 0;", "time"));
  EXPECT_FALSE(has_call("to_seconds(time)", "time"));       // not a call
}

TEST(Rules, FixtureGoldenOutput) {
  LintOptions opts;
  opts.root = fixture_root();
  opts.label = "src";
  const LintResult res = run_lint(opts);
  EXPECT_EQ(res.files_scanned, 12);
  const std::string got = format_findings(res.fresh, "src");
  const std::string want =
      read_file(std::string(NOWLB_FIXTURE_DIR) + "/expected.txt");
  EXPECT_EQ(got, want);
}

TEST(Rules, EveryFamilyRepresentedInFixtures) {
  LintOptions opts;
  opts.root = fixture_root();
  const LintResult res = run_lint(opts);
  std::set<std::string> codes;
  for (const auto& f : res.fresh) codes.insert(f.rule->code);
  for (const char* code :
       {"D001", "D002", "D003", "L001", "L002", "P001", "P002", "S001",
        "S002", "F001", "F002"})
    EXPECT_TRUE(codes.count(code)) << "fixture suite lost coverage of "
                                   << code;
}

TEST(Rules, WhitelistSilencesUnordered) {
  LintOptions opts;
  opts.root = fixture_root();
  opts.config.unordered_whitelist.push_back("sim/unordered.hpp");
  const LintResult res = run_lint(opts);
  for (const auto& f : res.fresh)
    EXPECT_STRNE(f.rule->code, "D003") << f.rel_path << ":" << f.line;
}

TEST(Rules, SuppressionWithReasonIsHonoured) {
  LintOptions opts;
  opts.root = fixture_root();
  const LintResult res = run_lint(opts);
  // unordered.hpp line 15 carries a justified NOLINT; 12 and 19 do not.
  for (const auto& f : res.fresh) {
    if (f.rel_path == "sim/unordered.hpp" &&
        std::string(f.rule->code) == "D003") {
      EXPECT_NE(f.line, 15);
    }
  }
}

TEST(Baseline, RoundTripAndStaleness) {
  const fs::path tmp =
      fs::temp_directory_path() / "nowlb_lint_baseline_test.txt";
  LintOptions opts;
  opts.root = fixture_root();
  opts.baseline_path = tmp.string();
  opts.update_baseline = true;
  (void)run_lint(opts);

  // With the freshly written baseline the tree is clean.
  opts.update_baseline = false;
  LintResult res = run_lint(opts);
  EXPECT_TRUE(res.clean());
  EXPECT_EQ(res.baselined.size(), 19u);
  EXPECT_TRUE(res.stale_baseline.empty());

  // A baseline entry that matches nothing is reported stale, not fatal.
  {
    std::ofstream out(tmp, std::ios::app);
    out << "D001\tutil/gone.cpp\ttime#1\n";
  }
  res = run_lint(opts);
  EXPECT_TRUE(res.clean());
  ASSERT_EQ(res.stale_baseline.size(), 1u);
  EXPECT_NE(res.stale_baseline[0].find("util/gone.cpp"), std::string::npos);
  fs::remove(tmp);
}

TEST(Baseline, MissingFileMeansEmpty) {
  LintOptions opts;
  opts.root = fixture_root();
  opts.baseline_path = "/nonexistent/nowlb-baseline";
  const LintResult res = run_lint(opts);
  EXPECT_FALSE(res.clean());
  EXPECT_TRUE(res.stale_baseline.empty());
}

TEST(Catalog, NamesResolve) {
  for (const auto& r : rule_catalog()) {
    const Rule* found = rule_by_name(r.name);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->code, r.code);
  }
  EXPECT_EQ(rule_by_name("nowlb-bogus"), nullptr);
}
