// Include-graph rules (L-family).
//
// Project includes are spelled root-relative ("sim/engine.hpp"), so the
// graph is exactly the set of quoted includes that resolve to a scanned
// file. Two checks run over it:
//
//   L001  an include may only point at a strictly lower layer, or stay
//         inside its own module (same-rank cross-module includes are
//         upward by definition: neither side outranks the other).
//   L002  the file-level graph must be acyclic, independent of layers —
//         a cycle means some header cannot be parsed standalone.
#pragma once

#include <vector>

#include "analyze/rules.hpp"

namespace nowlb::analyze {

void run_layering_rules(const std::vector<ScannedFile>& files,
                        std::vector<Finding>& out);

}  // namespace nowlb::analyze
