#include "exp/harness.hpp"

#include "load/generators.hpp"
#include "obs/attach.hpp"
#include "util/check.hpp"

namespace nowlb::exp {

sim::WorldConfig paper_world() {
  sim::WorldConfig wc;  // defaults are the paper calibration (DESIGN.md §5)
  return wc;
}

lb::LbConfig paper_lb() {
  lb::LbConfig cfg;  // defaults follow the paper (config.hpp)
  return cfg;
}

namespace {

struct RunParts {
  std::unique_ptr<obs::Observability> local_obs;
  obs::Observability* obs = nullptr;   // effective hub (external or local)
  sim::World world;
  lb::Cluster cluster;

  RunParts(const ExperimentConfig& cfg, lb::ClusterConfig cc)
      : local_obs(cfg.obs == nullptr && cfg.want_trace
                      ? std::make_unique<obs::Observability>()
                      : nullptr),
        obs(cfg.obs != nullptr ? cfg.obs : local_obs.get()),
        world(cfg.world),
        // The hub must be attached before the cluster spawns the master
        // and slaves: their emitters bind to it at construction.
        cluster(attach(world, obs), std::move(cc)) {}

  static sim::World& attach(sim::World& w, obs::Observability* o) {
    obs::attach(w, o);
    return w;
  }
};

Measurement finish(const ExperimentConfig& cfg, RunParts& parts,
                   double seq_s, Trace* trace) {
  auto& w = parts.world;
  auto& cluster = parts.cluster;
  for (const auto& load : cfg.loads) {
    cluster.add_load(load.rank, load.make());
  }
  w.run();

  Measurement m;
  m.elapsed_s = sim::to_seconds(w.now());
  m.seq_s = seq_s;
  m.speedup = seq_s / m.elapsed_s;
  m.trace_hash = w.engine().trace_hash();
  m.dispatched_events = w.engine().dispatched_events();
  m.stats = cluster.stats();

  // efficiency = T_seq / sum_p (elapsed - competing CPU on p's host)
  double denominator = 0;
  for (int r = 0; r < cfg.slaves; ++r) {
    double competing = 0;
    for (sim::Pid load_pid : cluster.loads(r)) {
      competing += sim::to_seconds(w.cpu_used(load_pid));
    }
    m.competing_cpu_s += competing;
    denominator += m.elapsed_s - competing;
  }
  NOWLB_CHECK(denominator > 0, "no available CPU time measured");
  m.efficiency = seq_s / denominator;

  if (trace != nullptr && cfg.want_trace && parts.obs != nullptr) {
    trace->rounds = parts.obs->ledger.records();
  }
  return m;
}

}  // namespace

Measurement run_mm(const apps::MmConfig& app, const ExperimentConfig& cfg,
                   Trace* trace) {
  auto cc = apps::mm_cluster_config(app, cfg.slaves, cfg.lb);
  cc.use_master = cfg.balance;
  RunParts parts(cfg, std::move(cc));
  auto shared = std::make_shared<apps::MmShared>();
  apps::mm_make_inputs(app, *shared);
  apps::mm_build(parts.cluster, app, shared);
  return finish(cfg, parts, apps::mm_seq_time_s(app), trace);
}

Measurement run_sor(const apps::SorConfig& app, const ExperimentConfig& cfg,
                    Trace* trace) {
  auto cc = apps::sor_cluster_config(app, cfg.slaves, cfg.lb);
  cc.use_master = cfg.balance;
  RunParts parts(cfg, std::move(cc));
  auto shared = std::make_shared<apps::SorShared>();
  apps::sor_make_inputs(app, *shared);
  apps::sor_build(parts.cluster, app, shared);
  return finish(cfg, parts, apps::sor_seq_time_s(app), trace);
}

Measurement run_lu(const apps::LuConfig& app, const ExperimentConfig& cfg,
                   Trace* trace) {
  auto cc = apps::lu_cluster_config(app, cfg.slaves, cfg.lb);
  cc.use_master = cfg.balance;
  RunParts parts(cfg, std::move(cc));
  auto shared = std::make_shared<apps::LuShared>();
  apps::lu_make_inputs(app, *shared);
  apps::lu_build(parts.cluster, app, shared);
  return finish(cfg, parts, apps::lu_seq_time_s(app), trace);
}

RepeatedMeasurement repeat(
    int reps, const ExperimentConfig& cfg,
    const std::function<Measurement(const ExperimentConfig&)>& run_once) {
  RepeatedMeasurement out;
  for (int r = 0; r < reps; ++r) {
    ExperimentConfig varied = cfg;
    varied.world.seed = cfg.world.seed + static_cast<std::uint64_t>(r);
    const Measurement m = run_once(varied);
    out.elapsed_s.add(m.elapsed_s);
    out.speedup.add(m.speedup);
    out.efficiency.add(m.efficiency);
    out.last_stats = m.stats;
  }
  return out;
}

}  // namespace nowlb::exp
