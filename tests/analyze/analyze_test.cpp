// nowlb-lint's own test suite: lexer soundness, rule behaviour against the
// deliberately-violating fixture tree (golden output), and suppression
// mechanics. NOWLB_FIXTURE_DIR points at tests/analyze/fixtures.
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analyze/lex.hpp"
#include "analyze/lint.hpp"
#include "analyze/rules.hpp"

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
  const LintResult res = run_lint(fixture_root());
  EXPECT_EQ(res.files_scanned, 8);
  const std::string got = format_findings(res.findings, "src");
  const std::string want =
      read_file(std::string(NOWLB_FIXTURE_DIR) + "/expected.txt");
  EXPECT_EQ(got, want);
}

TEST(Rules, EveryFamilyRepresentedInFixtures) {
  const LintResult res = run_lint(fixture_root());
  std::set<std::string> codes;
  for (const auto& f : res.findings) codes.insert(f.rule->code);
  for (const auto& r : rule_catalog())
    EXPECT_TRUE(codes.count(r.code)) << "fixture suite lost coverage of "
                                     << r.code;
}

TEST(Rules, SuppressionWithReasonIsHonoured) {
  const LintResult res = run_lint(fixture_root());
  // unordered.hpp line 15 carries a justified NOLINT; 12 and 19 do not.
  for (const auto& f : res.findings) {
    if (f.rel_path == "sim/unordered.hpp" &&
        std::string(f.rule->code) == "D003") {
      EXPECT_NE(f.line, 15);
    }
  }
}

TEST(Catalog, NamesResolve) {
  for (const auto& r : rule_catalog()) {
    const Rule* found = rule_by_name(r.name);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->code, r.code);
    // Determinism, layering and suppression hygiene only: message tags are
    // checked by the simulator and the compiler, not by the linter.
    EXPECT_NE(std::string("DLS").find(r.code[0]), std::string::npos)
        << r.code;
  }
  EXPECT_EQ(rule_by_name("nowlb-bogus"), nullptr);
}
