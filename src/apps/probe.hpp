// Where a slave of SOR or LU last waited or hooked: a debugging aid for a
// run that stops before it terminates (check::run_scenario names every
// rank's probe in its `termination` failure). Slaves set theirs on every
// wait and hook, so setting one allocates nothing; text() spells it out
// only for that report.
#pragma once

#include <string>

namespace nowlb::apps {

struct Probe {
  struct Int {
    const char* name = nullptr;  // null: unused, and so are the ones after
    int value = 0;
  };
  const char* state = "start";
  Int ints[3] = {};

  /// The state, then each int as name=value: "ghost sweep=3 strip=5 col=1".
  std::string text() const {
    std::string out = state;
    for (const Int& i : ints) {
      if (i.name == nullptr) break;
      out.append(" ").append(i.name).append("=").append(
          std::to_string(i.value));
    }
    return out;
  }
};

}  // namespace nowlb::apps
