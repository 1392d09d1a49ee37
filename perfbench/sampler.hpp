// CPU-time sampling profiler that splits host time across nowlb's layers.
//
// SIGPROF fires on the process's CPU clock. The handler unwinds the stack
// (libbacktrace over libgcc's DWARF unwinder, so libc frames without frame
// pointers are walked too) and stores the raw addresses; nothing is
// resolved while sampling. take() later maps each sample to the module of
// its innermost nowlb:: frame, counting inlined frames: libc and std::
// frames are walked through to their caller, and a sample with no nowlb::
// frame at all counts as "other".
//
// The layers are the src/ modules, which are also the nowlb:: namespaces.
// Code declared directly in nowlb:: or nowlb::detail counts as "util".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

inline constexpr std::array<std::string_view, 12> kLayers = {
    "sim", "msg", "lb",    "data", "apps", "load",
    "loop", "obs", "check", "exp",  "util", "other"};
inline constexpr int kOther = static_cast<int>(kLayers.size()) - 1;

/// Index of `name` in kLayers, or -1.
constexpr int layer_index(std::string_view name) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (kLayers[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// Samples per layer, indexed like kLayers.
struct LayerSplit {
  std::array<std::uint64_t, kLayers.size()> samples{};

  std::uint64_t total() const;
  double share(int layer) const;
  /// Share of samples attributed to a nowlb module (everything but other).
  double coverage() const;
};

/// One per process: it owns the SIGPROF handler and the interval timer.
/// Samples are kept only between start() and stop(), so the timer can stay
/// armed across many short spans without biasing any of them.
class Sampler {
 public:
  Sampler();
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void arm();     // start the CPU-time interval timer
  void disarm();  // stop it
  void start();   // keep samples from now on
  void stop();    // discard samples from now on

  /// Samples kept since the last take().
  std::uint64_t kept() const;
  /// Attribute every sample kept since the last take() and forget them.
  /// Call it stopped.
  LayerSplit take();
  /// Samples lost because the buffer was full (should stay 0).
  std::uint64_t dropped() const;
};

}  // namespace perfbench
