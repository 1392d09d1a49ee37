#include "apps/mm.hpp"

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "loop/movement.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nowlb::apps {

using data::BlockMap;
using data::DistArray;
using data::SliceId;
using sim::Context;
using sim::Task;
using sim::Time;

loop::LoopNestSpec mm_spec(const MmConfig& cfg) {
  loop::LoopNestSpec spec;
  spec.name = "MM";
  spec.distributed_extent = cfg.n;
  spec.inner_extent = cfg.n;  // rows of the output column
  spec.outer_iters = cfg.repeats;
  spec.loop_carried_dependences = false;
  spec.communication_outside_loop = false;
  spec.index_dependent_iteration_size = false;
  spec.data_dependent_iteration_size = false;
  const Time column_cost =
      static_cast<Time>(cfg.n) * static_cast<Time>(cfg.n) * cfg.mac_cost;
  spec.iteration_cost = [column_cost](int, SliceId) { return column_cost; };
  return spec;
}

double mm_seq_time_s(const MmConfig& cfg) {
  const double macs = static_cast<double>(cfg.n) * cfg.n * cfg.n;
  return macs * sim::to_seconds(cfg.mac_cost) * cfg.repeats;
}

void mm_make_inputs(const MmConfig& cfg, MmShared& shared) {
  Rng rng(cfg.seed);
  const std::size_t n = static_cast<std::size_t>(cfg.n);
  shared.a.resize(n * n);
  for (auto& v : shared.a) v = rng.uniform(-1.0, 1.0);
  shared.b.assign(n, {});
  for (auto& col : shared.b) {
    col.resize(n);
    for (auto& v : col) v = rng.uniform(-1.0, 1.0);
  }
  shared.c.assign(n, std::vector<double>(n, 0.0));
  shared.compute_count_per_column.assign(n, 0);
}

std::vector<std::vector<double>> mm_sequential(const MmConfig& cfg,
                                               const MmShared& shared) {
  const int n = cfg.n;
  std::vector<std::vector<double>> c(n, std::vector<double>(n, 0.0));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) {
        sum += shared.a[static_cast<std::size_t>(i) * n + k] *
               shared.b[j][static_cast<std::size_t>(k)];
      }
      c[j][static_cast<std::size_t>(i)] = sum;
    }
  }
  return c;
}

lb::ClusterConfig mm_cluster_config(const MmConfig& cfg, int slaves,
                                    const lb::LbConfig& lb) {
  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.phases = cfg.repeats;
  cc.termination = lb::Termination::kPhases;
  cc.lb = lb;
  cc.lb.movement = lb::Movement::kUnrestricted;  // no carried dependences
  // Work unit j is column j of B and C.
  cc.initial_counts = BlockMap::even(cfg.n, slaves).counts();
  return cc;
}

namespace {

// Compute one column of C (cost always; arithmetic when real_compute).
Task<> compute_column(Context& ctx, const MmConfig& cfg, MmShared& shared,
                      const std::vector<double>& b_col, SliceId j) {
  const Time cost =
      static_cast<Time>(cfg.n) * static_cast<Time>(cfg.n) * cfg.mac_cost;
  co_await ctx.compute(cost);
  ++shared.compute_count_per_column[static_cast<std::size_t>(j)];
  if (!cfg.real_compute) co_return;
  const int n = cfg.n;
  auto& out = shared.c[static_cast<std::size_t>(j)];
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      sum += shared.a[static_cast<std::size_t>(i) * n + k] *
             b_col[static_cast<std::size_t>(k)];
    }
    out[static_cast<std::size_t>(i)] = sum;
  }
}

}  // namespace

void mm_build(lb::Cluster& cluster, const MmConfig& cfg,
              std::shared_ptr<MmShared> shared) {
  shared->columns_computed.assign(cluster.slaves(), 0);

  cluster.spawn([cfg, shared](Context& ctx, int rank,
                              const lb::Cluster& c) -> Task<> {
    const int n = cfg.n;
    const auto block = BlockMap::even(n, c.slaves()).range(rank);

    // Local distributed data: this slave's columns of B. The compiler's
    // generated initialization distributes by block; at run time ownership
    // follows work movement through the index structure (§4.5). A column's
    // marker is 1 once it is computed in the current invocation, so the
    // pending columns are this invocation's work list.
    DistArray<double> local_b(static_cast<std::size_t>(n));
    local_b.enable_ownership_checks(rank);
    for (SliceId j = block.begin; j < block.end; ++j) {
      local_b.add(j, shared->b[static_cast<std::size_t>(j)]);
    }
    const auto pending = [](SliceId, int marker) { return marker == 0; };
    // Hoisted so the fault-recovery adopt op (which captures by reference)
    // knows the current invocation.
    int phase = 0;

    lb::SlaveAgent::WorkOps ops = loop::array_ops(local_b, pending);
    ops.adopt = [&](const std::vector<std::int32_t>& ids) -> Task<> {
      // Reconstruct orphaned columns from the replicated input B (a real
      // generated program would reload or recompute them the same way)
      // and redo whatever the dead rank had not finished this invocation:
      // compute_column's count increment is atomic with its output
      // write, so a column is either fully done (count == phase + 1) or
      // must be recomputed.
      for (const std::int32_t j : ids) {
        const bool done =
            shared->compute_count_per_column[static_cast<std::size_t>(j)] >=
            phase + 1;
        local_b.add(j, shared->b[static_cast<std::size_t>(j)], done ? 1 : 0);
      }
      co_return;
    };
    lb::SlaveAgent agent = c.make_agent(ctx, rank, std::move(ops));

    for (phase = 0; phase < cfg.repeats; ++phase) {
      // New invocation: every owned column is pending again.
      local_b.set_markers_from(0, 0);
      agent.begin_phase();
      for (;;) {
        while (const auto j = local_b.first_if(pending)) {
          co_await compute_column(ctx, cfg, *shared, local_b.slice(*j), *j);
          local_b.set_marker(*j, 1);
          ++shared->columns_computed[static_cast<std::size_t>(rank)];
          // Hook at the end of each distributed iteration: the distributed
          // loop is outermost (§4.2 rule 1).
          agent.add_units(1);
          co_await agent.hook();
        }
        co_await agent.drain();
        if (agent.phase_done()) break;
      }
    }
  });
}

}  // namespace nowlb::apps
