// D003 + S001 fixture: unordered containers and suppression hygiene.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace fx {

struct Registry {
  // Fresh finding: no suppression.
  std::unordered_map<int, int> by_id;

  // Properly suppressed: justified, so no finding.
  std::unordered_set<int> seen;  // NOLINT(nowlb-unordered: membership only, never iterated)

  // Reason missing: the suppression is void (D003 fires) and the NOLINT
  // itself is an S001 finding.
  std::unordered_map<int, std::string> names;  // NOLINT(nowlb-unordered)
};

}  // namespace fx
