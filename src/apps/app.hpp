// The three applications the paper parallelizes: matrix multiplication,
// pipelined SOR and LU decomposition.
#pragma once

namespace nowlb::apps {

enum class App { kMm, kSor, kLu };

/// "mm", "sor" or "lu": the spelling the CLIs accept and print.
inline const char* app_name(App app) {
  switch (app) {
    case App::kMm:
      return "mm";
    case App::kSor:
      return "sor";
    case App::kLu:
      return "lu";
  }
  return "?";
}

}  // namespace nowlb::apps
