#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace nowlb {

namespace {

/// A value that does not parse whole must not fall back to a default or
/// to its numeric prefix: print it the way an unknown flag is printed.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "bad value --%s=%s: expected %s (see --help)\n",
               name.c_str(), value.c_str(), expected);
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> flags,
         std::string usage)
    : usage_(std::move(usage)) {
  if (usage_.empty()) {
    std::string prog = argc > 0 ? argv[0] : "";
    usage_ = "usage: " + prog.substr(prog.find_last_of('/') + 1) +
             " [--flag=value ...]\nflags:";
    for (const std::string& f : flags) usage_ += " --" + f;
    usage_ += " --help\n";
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::fputs(usage_.c_str(), stdout);
      std::exit(0);
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(flags.begin(), flags.end(), name) == flags.end()) {
      // A misspelled flag must not silently fall back to a default.
      std::fprintf(stderr, "unknown flag %s (see --help)\n", arg.c_str());
      std::exit(2);
    }
    // A bare --flag is boolean; values use --name=value.
    flags_[name] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    bad_value(name, it->second, "an integer");
  }
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    bad_value(name, it->second, "a finite number");
  }
  return v;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "true, false, 1, 0, yes or no");
}

}  // namespace nowlb
