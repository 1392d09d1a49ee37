// World: owns the engine, hosts, network and processes of one simulation.
//
// Typical use:
//   sim::World w;
//   auto& h0 = w.add_host();
//   sim::Pid a = w.spawn(h0, "worker", [](sim::Context& ctx) -> sim::Task<> {
//     co_await ctx.compute(sim::kSecond);
//   });
//   w.run();   // runs until all essential processes finish
//
// Non-essential processes (load generators) may run forever; the run loop
// stops once every essential process has completed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/attach.hpp"
#include "sim/config.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace nowlb::sim {

/// Factory for a process body; invoked once when the process starts.
using ProcessBody = std::function<Task<>(Context&)>;

class World {
 public:
  explicit World(WorldConfig cfg = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldConfig& config() const { return cfg_; }
  Engine& engine() { return engine_; }
  Network& network() { return network_; }
  Time now() const { return engine_.now(); }

  /// The flight-recorder hub obs::attach() set, or null. The world and
  /// its network record process lifecycle and message events into it;
  /// lb's recorder finds it here.
  obs::Observability* obs() const { return obs_; }

  /// Create a new host (workstation). Hosts are identified by index.
  Host& add_host();
  Host& host(int id) { return *hosts_.at(id); }

  /// Spawn a process on `host`; it starts at the current virtual time.
  /// Essential processes gate run(); non-essential ones (competing loads)
  /// are abandoned when the run stops.
  Pid spawn(Host& host, std::string name, ProcessBody body,
            bool essential = true);

  Process& process(Pid pid) { return *processes_.at(pid); }
  const Process& process(Pid pid) const { return *processes_.at(pid); }
  std::size_t process_count() const { return processes_.size(); }

  /// CPU time consumed by a process so far (getrusage equivalent).
  Time cpu_used(Pid pid) const;

  /// Crash-fault injection: the process is never resumed again, its
  /// mailbox closes (future arrivals are discarded), the scheduler
  /// forgets it, and its kill hooks run so runtime layers cancel their
  /// timers. Idempotent. A killed essential process counts as finished
  /// so the run loop can still terminate.
  void kill(Pid pid);

  /// Run until every essential process has finished (or a process failed,
  /// in which case the error is rethrown here). A process whose body
  /// returns while a message is still queued for it fails the run with a
  /// CheckFailure naming it, the count, and the first message's tag and
  /// sender.
  void run();

  /// Run until virtual time `t`.
  void run_until(Time t);

  /// Fresh RNG stream derived from the world seed.
  Rng fork_rng() { return rng_.fork(); }

  /// Essential processes that have not finished yet. Nonzero after a
  /// bounded run means the simulation failed to terminate in time.
  std::size_t essential_remaining() const { return essential_outstanding_; }

  // Internal: called by Process when its body completes.
  void on_process_done(Process& p);

 private:
  friend void obs::attach(sim::World& w, obs::Observability* hub);

  WorldConfig cfg_;
  Engine engine_;
  Network network_;
  obs::Observability* obs_ = nullptr;
  bool owns_log_clock_ = false;
  Rng rng_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t essential_outstanding_ = 0;
};

}  // namespace nowlb::sim
