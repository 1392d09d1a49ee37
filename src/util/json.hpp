// The one JSON string writer: every JSON document the tools emit (the
// Chrome trace, nowlb-inspect's report, nowlb-bench's BENCH file) quotes
// its strings through it.
#pragma once

#include <ostream>
#include <string_view>

namespace nowlb {

/// Write `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline and tab become `\n` and `\t`, and every other control character
/// becomes `\u00XX`.
void write_json_string(std::ostream& out, std::string_view s);

}  // namespace nowlb
