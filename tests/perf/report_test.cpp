// nowlb-bench's report writer: a BENCH file is strict JSON whatever its
// label holds.
#include <gtest/gtest.h>

#include <string>

#include "perf/report.hpp"

namespace nowlb::perf {
namespace {

// The label comes from the command line: quotes, backslashes and control
// characters are escaped, and no raw control character reaches the file.
TEST(Report, EscapesQuotesBackslashesAndControlCharacters) {
  ReportMeta meta;
  meta.date = "2026-10-19";
  meta.label = "a\"b\\c\rd\x01" "e";
  const std::string json = to_json(meta, {});
  EXPECT_NE(json.find(R"("label": "a\"b\\c\u000dd\u0001e")"),
            std::string::npos)
      << json;
  for (const char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
  }
}

}  // namespace
}  // namespace nowlb::perf
