// Minimal leveled logger.
//
// Experiments run thousands of simulated seconds; logging defaults to Warn so
// benches stay quiet, and tests can raise verbosity per component:
//
//   Log::set_level(LogLevel::Warn);                   // global floor
//   Log::set_level("lb.transport", LogLevel::Debug);  // one component verbose
//
// When a simulation is running, the owning World installs a time source and
// every line gains a `[t=12.345678s]` simulated-time prefix, so fault-sweep
// logs line up with trace timelines.
#pragma once

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace nowlb {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global logging configuration (process-wide).
class Log {
 public:
  static LogLevel level() { return level_; }
  static void set_level(LogLevel l) { level_ = l; }

  /// Per-component override: `set_level("lb.transport", Debug)` makes that
  /// component verbose regardless of the global level. A component matches
  /// by its exact name: "lb" does not cover "lb.transport".
  /// clear_component_levels() drops every override.
  static void set_level(const std::string& component, LogLevel l);
  static void clear_component_levels();

  /// Should a line at level `l` from `component` be emitted? Checks the
  /// component override first, then the global level.
  static bool enabled(LogLevel l, const char* component);

  static void set_sink(std::ostream* os) { sink_ = os; }

  /// Simulated-time source for the `[t=...s]` prefix. `owner` identifies
  /// the installer (a World); clear_time_source is a no-op for any other
  /// owner, so nested worlds cannot steal each other's clock.
  static void set_time_source(double (*now_seconds)(void*), void* owner);
  static void clear_time_source(void* owner);
  static bool has_time_source() { return clock_fn_ != nullptr; }

  /// Emit one line: `[t=...s] [level] [component] message`. Thread-safe.
  static void write(LogLevel l, const std::string& component,
                    const std::string& message);

  static const char* level_name(LogLevel l);

 private:
  static LogLevel level_;
  static std::ostream* sink_;
  static std::mutex mu_;
  static double (*clock_fn_)(void*);
  static void* clock_owner_;
};

namespace detail {
struct LogLine {
  LogLevel level;
  const char* component;
  std::ostringstream os;
  LogLine(LogLevel l, const char* c) : level(l), component(c) {}
  ~LogLine() { Log::write(level, component, os.str()); }
};
}  // namespace detail

}  // namespace nowlb

/// NOWLB_LOG(Info, "lb") << "moved " << n << " units";
#define NOWLB_LOG(lvl, component)                                       \
  if (!::nowlb::Log::enabled(::nowlb::LogLevel::lvl, component)) {      \
  } else                                                                \
    ::nowlb::detail::LogLine(::nowlb::LogLevel::lvl, component).os
