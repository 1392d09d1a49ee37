// Cluster: wires one master + N slaves (one workstation each) into a World,
// handling pid bookkeeping, master spawning, and competing-load attachment.
// The run it wires is the one its ClusterConfig (lb/master.hpp) describes.
//
// Usage:
//   lb::Cluster cluster(world, ccfg);
//   cluster.spawn([&](sim::Context& ctx, int rank, const lb::Cluster& c)
//                     -> sim::Task<> { ... });
//   cluster.add_load(0, constant_load());   // optional competing tasks
//   world.run();
#pragma once

#include <functional>
#include <vector>

#include "lb/config.hpp"
#include "lb/master.hpp"
#include "lb/slave.hpp"
#include "sim/world.hpp"

namespace nowlb::lb {

class Cluster {
 public:
  /// Body of slave `rank`; runs as the slave process.
  using SlaveBody =
      std::function<sim::Task<>(sim::Context&, int rank, const Cluster&)>;

  Cluster(sim::World& world, ClusterConfig cfg);

  /// Spawn the slaves and the master. Call exactly once.
  void spawn(SlaveBody body);

  /// Attach a competing load process to slave `rank`'s host. The body is a
  /// plain process body; it is spawned non-essential.
  void add_load(int rank, sim::ProcessBody load_body);

  /// Pids of the competing loads attached to `rank` (for the efficiency
  /// metric's competing-CPU term).
  const std::vector<sim::Pid>& loads(int rank) const {
    return load_pids_.at(rank);
  }
  bool has_master() const { return cfg_.use_master; }

  int slaves() const { return cfg_.slaves; }
  const std::vector<sim::Pid>& slave_pids() const { return slave_pids_; }
  sim::Pid slave_pid(int rank) const { return slave_pids_.at(rank); }
  sim::Pid master_pid() const { return master_pid_; }
  /// All zero when the run has no master.
  const MasterStats& stats() const { return stats_; }
  const ClusterConfig& config() const { return cfg_; }

  /// Build a configured SlaveAgent for `rank` (inside its process body).
  SlaveAgent make_agent(sim::Context& ctx, int rank,
                        SlaveAgent::WorkOps ops) const;

 private:
  sim::World& world_;
  ClusterConfig cfg_;
  std::vector<sim::Host*> slave_hosts_;
  sim::Host* master_host_ = nullptr;
  std::vector<sim::Pid> slave_pids_;
  std::vector<std::vector<sim::Pid>> load_pids_;
  sim::Pid master_pid_ = sim::kAnyPid;
  MasterStats stats_;
  bool spawned_ = false;
};

}  // namespace nowlb::lb
