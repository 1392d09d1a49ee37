#include "lb/cluster.hpp"

#include <string>

#include "util/check.hpp"

namespace nowlb::lb {

Cluster::Cluster(sim::World& world, ClusterConfig cfg)
    : world_(world), cfg_(std::move(cfg)) {
  NOWLB_CHECK(cfg_.slaves > 0);
  NOWLB_CHECK(static_cast<int>(cfg_.initial_counts.size()) == cfg_.slaves,
              "initial_counts must have one entry per slave");
  for (int r = 0; r < cfg_.slaves; ++r) {
    slave_hosts_.push_back(&world_.add_host());
  }
  load_pids_.resize(cfg_.slaves);
  if (cfg_.use_master) master_host_ = &world_.add_host();
}

void Cluster::spawn(SlaveBody body) {
  NOWLB_CHECK(!spawned_, "Cluster::spawn called twice");
  spawned_ = true;

  for (int r = 0; r < cfg_.slaves; ++r) {
    slave_pids_.push_back(world_.spawn(
        *slave_hosts_[r], "slave" + std::to_string(r),
        [this, body, r](sim::Context& ctx) -> sim::Task<> {
          co_await body(ctx, r, *this);
        }));
  }

  if (!cfg_.use_master) return;
  master_pid_ = world_.spawn(
      *master_host_, "master", [this](sim::Context& ctx) -> sim::Task<> {
        Master master(ctx, cfg_, slave_pids_, stats_);
        co_await master.run();
      });
}

void Cluster::add_load(int rank, sim::ProcessBody load_body) {
  load_pids_.at(rank).push_back(
      world_.spawn(*slave_hosts_.at(rank), "load" + std::to_string(rank),
                   std::move(load_body), /*essential=*/false));
}

SlaveAgent Cluster::make_agent(sim::Context& ctx, int rank,
                               SlaveAgent::WorkOps ops) const {
  NOWLB_CHECK(spawned_, "make_agent before spawn");
  return SlaveAgent(ctx, master_pid_, rank, slave_pids_, cfg_.lb,
                    std::move(ops),
                    first_window_units(cfg_.initial_counts[rank]));
}

}  // namespace nowlb::lb
