#include "apps/lu.hpp"

#include <span>

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "loop/movement.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace nowlb::apps {

using data::BlockMap;
using data::DistArray;
using data::SliceId;
using sim::Payload;
using sim::Context;
using sim::Message;
using sim::Task;
using sim::Time;

namespace {

constexpr sim::Tag kTagPivot = 8101;  // multipliers broadcast for step k

// The owner of column k broadcasts its multipliers for step k.
template <class Col = std::vector<double>>
struct Pivot {
  std::int32_t step = 0;
  Col multipliers;
  template <class A> void fields(A& a) { a(step, multipliers); }
};

}  // namespace

loop::LoopNestSpec lu_spec(const LuConfig& cfg) {
  loop::LoopNestSpec spec;
  spec.name = "LU";
  spec.distributed_extent = cfg.n;
  spec.inner_extent = cfg.n;
  spec.outer_iters = cfg.n - 1;  // steps k = 0 .. n-2
  spec.loop_carried_dependences = false;  // column updates are independent
  spec.communication_outside_loop = true;  // pivot broadcast per step
  spec.bounds = [n = cfg.n](int k) { return data::SliceRange{k + 1, n}; };
  spec.index_dependent_iteration_size = true;  // n-k rows per column
  spec.data_dependent_iteration_size = false;
  spec.iteration_cost = [cfg](int k, SliceId) {
    return static_cast<Time>(cfg.n - k - 1) * cfg.update_cost;
  };
  return spec;
}

double lu_seq_time_s(const LuConfig& cfg) {
  // sum over k of (n-k-1) columns x (n-k-1) rows
  double total = 0;
  for (int k = 0; k < cfg.n - 1; ++k) {
    const double m = cfg.n - k - 1;
    total += m * m;
  }
  return total * sim::to_seconds(cfg.update_cost);
}

void lu_make_inputs(const LuConfig& cfg, LuShared& shared) {
  Rng rng(cfg.seed);
  const std::size_t n = static_cast<std::size_t>(cfg.n);
  shared.a.assign(n, std::vector<double>(n));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      shared.a[j][i] = rng.uniform(-1.0, 1.0);
    }
    // Diagonal dominance keeps the factorization stable without pivoting.
    shared.a[j][j] += static_cast<double>(n);
  }
  shared.final_owner.assign(n, -1);
}

void lu_sequential(const LuConfig& cfg, std::vector<std::vector<double>>& a) {
  const int n = cfg.n;
  for (int k = 0; k < n - 1; ++k) {
    auto& ck = a[static_cast<std::size_t>(k)];
    const double dk = ck[static_cast<std::size_t>(k)];
    for (int i = k + 1; i < n; ++i) {
      ck[static_cast<std::size_t>(i)] /= dk;
    }
    for (int j = k + 1; j < n; ++j) {
      auto& cj = a[static_cast<std::size_t>(j)];
      const double akj = cj[static_cast<std::size_t>(k)];
      for (int i = k + 1; i < n; ++i) {
        cj[static_cast<std::size_t>(i)] -=
            ck[static_cast<std::size_t>(i)] * akj;
      }
    }
  }
}

lb::ClusterConfig lu_cluster_config(const LuConfig& cfg, int slaves,
                                    const lb::LbConfig& lb) {
  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.phases = 1;  // unused: termination by done flags
  cc.termination = lb::Termination::kDoneFlags;
  cc.lb = lb;
  cc.lb.movement = lb::Movement::kUnrestricted;
  cc.initial_counts = BlockMap::even(cfg.n, slaves).counts();
  return cc;
}

void lu_build(lb::Cluster& cluster, const LuConfig& cfg,
              std::shared_ptr<LuShared> shared) {
  shared->units_by_rank.assign(cluster.slaves(), 0.0);
  shared->probe.assign(cluster.slaves(), Probe{});

  cluster.spawn([cfg, shared](Context& ctx, int rank,
                              const lb::Cluster& c) -> Task<> {
    const int n = cfg.n;
    const int R = c.slaves();

    const auto block = BlockMap::even(n, R).range(rank);
    // Column marker = number of steps already applied to it.
    DistArray<double> cols(static_cast<std::size_t>(n));
    cols.enable_ownership_checks(rank);
    for (SliceId j = block.begin; j < block.end; ++j) {
      cols.add(j, std::move(shared->a[static_cast<std::size_t>(j)]));
    }

    // Full pivot history: work movement can hand us a column that lags the
    // local step, and catching it up needs the missed multipliers (§4.5
    // applied to LU). pivots[k] holds rows k+1..n-1.
    std::vector<std::vector<double>> pivots(static_cast<std::size_t>(n));

    int k_now = 0;  // current outer step
    // Columns up to the current step are finished (inactive, §4.7): they
    // neither count as remaining work nor move.
    lb::SlaveAgent agent = c.make_agent(
        ctx, rank, loop::array_ops(cols, [&k_now](SliceId id, int) {
          return id > k_now;
        }));

    // Bring column j through steps marker(j)..last (each step k does
    // cols[j] -= pivots[k] * a[k][j] on rows k+1..n-1) and set its marker
    // past them; a column already past `last` is left alone (set-aside).
    // Adds the steps applied to `steps` and returns their cost.
    const auto catch_up = [&](SliceId j, int last, int& steps) {
      Time cost = 0;
      int k = cols.marker(j);
      for (; k <= last; ++k, ++steps) {
        cost += static_cast<Time>(n - k - 1) * cfg.update_cost;
        if (!cfg.real_compute) continue;
        auto& cj = cols.slice(j);
        const auto& piv = pivots[static_cast<std::size_t>(k)];
        const double akj = cj[static_cast<std::size_t>(k)];
        for (int i = k + 1; i < n; ++i) {
          cj[static_cast<std::size_t>(i)] -=
              piv[static_cast<std::size_t>(i - k - 1)] * akj;
        }
      }
      cols.set_marker(j, k);
      return cost;
    };
    const auto add_steps = [&](int steps) {
      shared->units_by_rank[static_cast<std::size_t>(rank)] += steps;
      agent.add_units(steps);
    };

    for (int k = 0; k < n - 1; ++k) {
      k_now = k;

      // A freshly moved-in column k may lag (its donor was at an earlier
      // step); catch it up before it can serve as the pivot column.
      if (cols.owns(k) && cols.marker(k) < k) {
        int steps = 0;
        const Time cost = catch_up(k, k - 1, steps);
        add_steps(steps);
        co_await ctx.compute(cost);
      }

      // --- obtain the multipliers for step k ---
      if (cols.owns(k) && cols.marker(k) == k) {
        // We own an up-to-date column k: compute and broadcast.
        auto& ck = cols.slice(k);
        co_await ctx.compute(static_cast<Time>(n - k - 1) * cfg.update_cost);
        std::vector<double> piv(static_cast<std::size_t>(n - k - 1));
        const double dk = ck[static_cast<std::size_t>(k)];
        for (int i = k + 1; i < n; ++i) {
          if (cfg.real_compute) ck[static_cast<std::size_t>(i)] /= dk;
          piv[static_cast<std::size_t>(i - k - 1)] =
              ck[static_cast<std::size_t>(i)];
        }
        pivots[static_cast<std::size_t>(k)] = std::move(piv);
        const Payload payload = msg::encode(Pivot<std::span<const double>>{
            k, pivots[static_cast<std::size_t>(k)]});
        for (int r2 = 0; r2 < R; ++r2) {
          if (r2 == rank) continue;
          co_await ctx.send(c.slave_pid(r2), kTagPivot, payload);
        }
      } else {
        // Someone else owns column k (possibly after a recent transfer):
        // wait for the broadcast, pumping runtime messages meanwhile.
        while (pivots[static_cast<std::size_t>(k)].empty()) {
          if (cols.owns(k)) {
            // Ownership arrived mid-wait — possibly lagging (the donor was
            // behind step k). Restart the step as owner: the catch-up at
            // the step top brings the column to marker == k first. Waiting
            // on would deadlock: no one else can broadcast this pivot.
            break;
          }
          shared->probe[rank] = {"pivot", {{"k", k}}};
          const Time w0 = ctx.now();
          Message m = co_await ctx.recv(sim::kAnyTag, sim::kAnyPid);
          shared->probe[rank] = {"pivot-got", {{"k", k}, {"tag", m.tag}}};
          agent.note_blocked(ctx.now() - w0);
          if (m.tag == kTagPivot) {
            auto bcast = msg::decode<Pivot<>>(m.payload);
            pivots[static_cast<std::size_t>(bcast.step)] =
                std::move(bcast.multipliers);
          } else {
            co_await agent.accept_runtime(std::move(m));
          }
        }
        if (pivots[static_cast<std::size_t>(k)].empty()) {
          --k;  // became owner of column k; redo this step in that role
          continue;
        }
      }

      // --- update owned active columns; catch up any that lag (moved
      // in); columns already past step k (moved from a slave that is
      // ahead) are left alone until k reaches them — set-aside. ---
      int steps = 0;
      Time cost = 0;
      for (SliceId j : cols.owned_ids()) {
        if (j > k) cost += catch_up(j, k, steps);
      }
      if (steps > 0) {
        co_await ctx.compute(cost);
        add_steps(steps);
      }

      // Hook at the end of each distributed-loop invocation (§4.2; §4.7's
      // frequency adaptation spaces the actual balances out in units).
      shared->probe[rank] = {"hook", {{"k", k}}};
      co_await agent.hook();
    }

    k_now = n - 1;  // column n-1 needs no further work
    shared->probe[rank] = {"finalize"};
    co_await agent.finalize();
    shared->probe[rank] = {"done"};
    // Column n-1 is never a pivot, so no step waits for it: a transfer
    // that delivers it after this rank's last update (while finalize
    // settles the orders) leaves it behind. Bring it up to date here.
    if (cols.owns(n - 1) && cols.marker(n - 1) < n - 1) {
      int steps = 0;
      const Time cost = catch_up(n - 1, n - 2, steps);
      add_steps(steps);
      co_await ctx.compute(cost);
    }

    for (SliceId id : cols.owned_ids()) {
      shared->a[static_cast<std::size_t>(id)] = std::move(cols.slice(id));
      shared->final_owner[static_cast<std::size_t>(id)] = rank;
    }
  });
}

}  // namespace nowlb::apps
