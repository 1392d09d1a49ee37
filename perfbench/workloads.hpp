// The benchmark's three workloads, each a closed loop with one client: the
// next figure point or fuzz scenario starts when the previous one returns.
//
//   sor_loaded      Fig. 8: 2000x2000 SOR, 20 sweeps, one constant load,
//                   2-7 slaves (neighbour-only movement), plus one
//                   held-out point.
//   mm_oscillating  Fig. 9: 500x500 MM with the recorder attached, one
//                   half-duty oscillating load, 2-8 slaves x periods of
//                   5, 20 and 80 s (unrestricted movement).
//   fuzz_faults     The CI fault campaign: generated mm/sor/lu scenarios
//                   under drops, duplicates, reordering and (MM) a slave
//                   crash, each checked by every invariant checker and the
//                   bit-exact sequential oracle.
//
// Figure points call the layers' public entry points in exp/harness.cpp's
// order (recorder, world, cluster, inputs, spawn, loads, run), which lets
// the benchmark time set-up apart from the run. The untimed warm-up runs
// every point through the harness itself, and each composed run must
// reproduce it bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Sampler;

/// The seed that reproduces the paper's placement: the load on rank 0, the
/// oscillation starting at t = 0, fuzz seeds 1..N. Any other seed draws
/// held-out inputs, so a claim can be re-checked on them: SOR's extra
/// point, each MM point's loaded rank and oscillation delay, and the fuzz
/// seeds.
inline constexpr std::uint64_t kPaperSeed = 1;

/// A host-time span around one call the benchmark makes into a layer.
struct Span {
  const char* name;
  int parent;  // enclosing span (unit, point or scenario); -1 for a unit
  double begin_s;
  double end_s;
};

/// Times every span; keeps them only when asked to (traced runs), so the
/// measured runs' memory does not grow with their length.
class SpanLog {
 public:
  explicit SpanLog(bool keep) : keep_(keep) {}

  int open(const char* name, int parent);
  /// Ends span `id` and returns its duration in seconds.
  double close(int id);
  bool write_jsonl(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  double now() const;

  bool keep_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// What one unit of the closed loop did: one pass over every figure point,
/// or one batch of fuzz scenarios.
struct UnitResult {
  double setup_s = 0;   // before each point's or scenario's first event
  double run_s = 0;     // World::run(_until) / check::run_scenario
  double verify_s = 0;  // output checks
  /// run_s and setup_s split into short items, in the same order in every
  /// unit: the run of each SOR slice, MM point or fuzz scenario, and the
  /// set-up of each figure point or batch of generated scenarios.
  std::vector<double> run_parts;
  std::vector<double> setup_parts;
  double inputs_s = 0;    // apps::*_make_inputs
  double cluster_s = 0;   // recorder, World, Cluster, spawn, loads
  double generate_s = 0;  // check::generate_scenario + apply_fault_plan
  double virtual_s = 0;   // simulated completion, summed over the unit
  /// Paper efficiency per figure point. A fuzz batch is one point: the
  /// mean over its scenarios without competing load, where the formula is
  /// exact (per-app means, or the worst app, swing by 12 % between seeds).
  std::vector<double> efficiency;
  int attempted = 0;
  int failed = 0;
  /// Recorder counts and work units of traced units, summed.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs every point or scenario once, untimed, to fill caches and the
  /// allocator, and keeps what every later run of it must reproduce. Figure
  /// points run through exp::run_sor / exp::run_mm, so each composed run is
  /// checked against the harness bit for bit.
  virtual UnitResult warm_up(SpanLog& spans) = 0;
  /// One timed unit. With a sampler the unit is traced: a recorder is
  /// attached and run-span samples are kept.
  virtual UnitResult run_unit(SpanLog& spans, Sampler* sampler) = 0;
  /// Trace hashes and dispatched events of the warm-up.
  virtual void print_fingerprint(std::ostream& out) const = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
