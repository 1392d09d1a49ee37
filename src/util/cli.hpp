// Command-line flag parser shared by the repo's binaries.
//
// Accepts `--name=value`; bare `--flag` is boolean true; everything else is
// positional. Each binary declares its flags: any other `--flag` prints an
// error naming it and exits 2, and `--help` prints the usage text (or a
// list generated from the declared flags) and exits 0, both before the
// binary does any work. A value that get_int, get_double or get_bool
// cannot read whole (an integer; a finite number; true, false, 1, 0, yes
// or no) also prints the flag and exits 2; each binary reads its values
// before it starts any work.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace nowlb {

class Cli {
 public:
  /// `flags` names every accepted flag (without the leading `--`).
  /// `usage`, when non-empty, is printed by --help instead of the list of
  /// declared flags.
  Cli(int argc, const char* const* argv, std::vector<std::string> flags,
      std::string usage = "");

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// What --help prints.
  const std::string& usage() const { return usage_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string usage_;
};

}  // namespace nowlb
