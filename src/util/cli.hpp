// Command-line flag parser shared by the repo's binaries.
//
// Accepts `--name=value`; bare `--flag` is boolean true. Each binary
// declares its flags: any other `--flag`, any `-x`, and any other argument
// in a binary that reads no positional arguments print an error naming it
// and exit 2, and `--help` prints the usage text (or a list generated from
// the declared flags) and exits 0, all before the binary does any work. A
// value that get_int, get_double or get_bool cannot read whole (an integer
// in the reader's range; a finite number; true, false, 1, 0, yes or no)
// also prints the flag and exits 2; each binary reads its values before it
// starts any work.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <map>
#include <string>
#include <system_error>
#include <vector>

namespace nowlb {

class Cli {
 public:
  /// `flags` names every accepted flag (without the leading `--`).
  /// `usage`, when non-empty, is printed by --help instead of the list of
  /// declared flags. Only a binary built with `positionals` set takes
  /// arguments that are not flags.
  Cli(int argc, const char* const* argv, std::vector<std::string> flags,
      std::string usage = "", bool positionals = false);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The value of --name as a T in [lo, hi], or `fallback` when the flag
  /// is absent. A value out of that range exits 2 like a malformed one: it
  /// never wraps into T.
  template <std::integral T>
  T get_int(const std::string& name, T fallback,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    const std::string& text = it->second;
    const char* const end = text.data() + text.size();
    T v{};
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || v < lo || v > hi) {
      bad_value(name, text,
                "an integer in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }
    return v;
  }
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// What --help prints.
  const std::string& usage() const { return usage_; }

 private:
  /// Print the flag, its value and what was expected, and exit 2.
  [[noreturn]] static void bad_value(const std::string& name,
                                     const std::string& value,
                                     const std::string& expected);

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string usage_;
};

}  // namespace nowlb
