#include "apps/sor.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <span>

#include "apps/sor_move.hpp"
#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "loop/grain.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace nowlb::apps {

using data::BlockMap;
using data::DistArray;
using data::SliceId;
using sim::Context;
using sim::Message;
using sim::Payload;
using sim::Pid;
using sim::Task;
using sim::Time;

namespace {

// Application-level message tags (distinct from the lb runtime's 9000s).
constexpr sim::Tag kTagSweepStart = 8001;  // whole first column, rightward owner -> left rank
constexpr sim::Tag kTagGhost = 8002;       // per-strip boundary segment, leftward owner -> right rank
constexpr sim::Tag kTagCalib = 8003;       // broadcast strip size at startup

constexpr double kC1 = 0.493;
constexpr double kC2 = -0.972;

using sor::LeftEdge;
using sor::RightEdge;
using sor::SweepStart;

// A row field: a View when sent, a vector (the default) when received.
using View = std::span<const double>;

// One strip's rows of the sender's highest column: the right rank's left
// boundary for that strip. A few hundred bytes, so they travel in the head.
template <class Col = std::vector<double>>
struct Ghost {
  std::int32_t sweep = 0;
  std::int32_t strip = 0;
  std::int32_t col = 0;
  Col rows;
  template <class A> void fields(A& a) { a(sweep, strip, col, rows); }
};

}  // namespace

loop::LoopNestSpec sor_spec(const SorConfig& cfg) {
  loop::LoopNestSpec spec;
  spec.name = "SOR";
  spec.distributed_extent = cfg.n - 2;
  spec.inner_extent = cfg.n - 2;
  spec.outer_iters = cfg.sweeps;
  spec.loop_carried_dependences = true;       // b[j-1][i] crosses slices
  spec.communication_outside_loop = true;     // sweep-start column exchange
  spec.index_dependent_iteration_size = false;
  spec.data_dependent_iteration_size = false;
  const Time col_cost =
      static_cast<Time>(cfg.n - 2) * cfg.update_cost;
  spec.iteration_cost = [col_cost](int, SliceId) { return col_cost; };
  return spec;
}

double sor_seq_time_s(const SorConfig& cfg) {
  const double updates = static_cast<double>(cfg.n - 2) * (cfg.n - 2);
  return updates * sim::to_seconds(cfg.update_cost) * cfg.sweeps;
}

void sor_make_inputs(const SorConfig& cfg, SorShared& shared) {
  Rng rng(cfg.seed);
  const std::size_t n = static_cast<std::size_t>(cfg.n);
  shared.grid.assign(n, std::vector<double>(n));
  for (auto& col : shared.grid) {
    for (auto& v : col) v = rng.uniform(0.0, 1.0);
  }
  shared.final_owner.assign(n, -1);
}

void sor_sequential(const SorConfig& cfg,
                    std::vector<std::vector<double>>& grid) {
  const int n = cfg.n;
  for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
    for (int i = 1; i < n - 1; ++i) {
      for (int j = 1; j < n - 1; ++j) {
        auto& col = grid[static_cast<std::size_t>(j)];
        col[i] = kC1 * (col[i - 1] + grid[static_cast<std::size_t>(j - 1)][i] +
                        col[i + 1] + grid[static_cast<std::size_t>(j + 1)][i]) +
                 kC2 * col[i];
      }
    }
  }
}

lb::ClusterConfig sor_cluster_config(const SorConfig& cfg, int slaves,
                                     const lb::LbConfig& lb) {
  lb::ClusterConfig cc;
  cc.slaves = slaves;
  cc.phases = cfg.sweeps;
  cc.termination = lb::Termination::kPhases;
  cc.lb = lb;
  cc.lb.movement = lb::Movement::kRestricted;  // loop-carried dependences
  cc.initial_counts = BlockMap::even(cfg.n - 2, slaves).counts();
  return cc;
}

void sor_build(lb::Cluster& cluster, const SorConfig& cfg,
               std::shared_ptr<SorShared> shared) {
  shared->units_by_rank.assign(cluster.slaves(), 0.0);
  shared->probe.assign(cluster.slaves(), Probe{});

  cluster.spawn([cfg, shared](Context& ctx, int rank,
                              const lb::Cluster& c) -> Task<> {
    const int n = cfg.n;
    const int R = c.slaves();
    const int interior = n - 2;  // columns/rows 1 .. n-2

    // ---- distributed data: owned columns (full height), per-column
    // marker = strips completed in the current sweep (§4.5). ----
    const auto block = BlockMap::even(interior, R).range(rank);
    DistArray<double> cols(static_cast<std::size_t>(n));
    cols.enable_ownership_checks(rank);
    for (SliceId b = block.begin; b < block.end; ++b) {
      const SliceId j = 1 + b;
      cols.add(j, std::move(shared->grid[static_cast<std::size_t>(j)]));
    }
    const std::vector<double>& bnd_left = shared->grid[0];
    const std::vector<double>& bnd_right =
        shared->grid[static_cast<std::size_t>(n - 1)];

    // Previous-sweep snapshot of the column right of our highest column.
    std::vector<double> right_ghost(static_cast<std::size_t>(n), 0.0);
    SliceId right_ghost_id = -1;

    // Snapshot of the highest column donated leftward: the donor's
    // remaining columns still read its this-sweep values as their left
    // boundary for strips below the donated marker; the receiver holds
    // the column at that marker and only re-sends segments beyond it.
    std::vector<double> left_ghost(static_cast<std::size_t>(n), 0.0);
    SliceId left_ghost_id = -1;
    int left_ghost_marker = 0;

    const bool has_left = rank > 0;
    const bool has_right = rank < R - 1;
    const Pid left_pid = has_left ? c.slave_pid(rank - 1) : sim::kAnyPid;
    const Pid right_pid = has_right ? c.slave_pid(rank + 1) : sim::kAnyPid;

    // ---- grain-size control (§4.4): rank 0 measures the cost of a few
    // pipelined-loop iterations (one row across its columns) at startup
    // and broadcasts the strip height. ----
    int bs = cfg.block_rows;
    if (bs == 0) {
      if (rank == 0) {
        const Time t0 = ctx.now();
        constexpr int kProbeRows = 3;
        co_await ctx.compute(static_cast<Time>(kProbeRows) *
                             cols.owned_count() * cfg.update_cost);
        const Time per_row = (ctx.now() - t0) / kProbeRows;
        bs = loop::block_size_for(
            loop::grain_target(ctx.world().config().host.quantum), per_row,
            interior);
        for (int r2 = 1; r2 < R; ++r2) {
          co_await ctx.send(c.slave_pid(r2), kTagCalib, msg::encode(bs));
        }
        shared->block_rows_used = bs;
      } else {
        Message m = co_await ctx.recv(kTagCalib, c.slave_pid(0));
        bs = msg::decode<std::int32_t>(m.payload);
      }
    } else if (rank == 0) {
      shared->block_rows_used = bs;
    }
    const int strips = (interior + bs - 1) / bs;

    const auto strip_rows = [n, bs](int s) {
      const int rb = 1 + s * bs;
      const int re = std::min(rb + bs, n - 1);
      return std::pair<int, int>(rb, re);
    };
    // Owned columns are contiguous and their markers never increase left to
    // right (checked after every move), so the minimum marker is the highest
    // column's and the columns at it are the top run: the strip loop reads
    // only that run, never the whole owned set, and finds it with one binary
    // search (top_below relies on the staircase). A rank always keeps a
    // column.
    const auto min_marker = [&cols]() {
      return cols.marker(cols.highest_id());
    };
    // Lowest column of the top run at the minimum marker p.
    const auto run_begin = [&cols](int p) {
      return cols.highest_id() - cols.top_below(p + 1) + 1;
    };

    // ---- work movement (the compiler-generated gather/scatter, §4.5) ----
    lb::SlaveAgent::WorkOps ops;
    ops.remaining = [&cols, strips] { return cols.top_below(strips); };
    ops.pack = [&, rank](int count,
                         int peer) -> Task<std::pair<Payload, int>> {
      // Keep at least one column: an empty rank breaks the pipeline chain.
      const int actual = std::max(0, std::min(count, cols.owned_count() - 1));
      std::vector<SliceId> ids(static_cast<std::size_t>(actual));
      if (actual > 0) {
        std::iota(ids.begin(), ids.end(),
                  peer > rank ? cols.highest_id() - actual + 1
                              : cols.lowest_id());
      }
      if (peer > rank && actual > 0) {
        // Donating our highest columns: snapshot the lowest donated column
        // as our new right ghost (its rows at strips >= its marker still
        // hold previous-sweep values, which is all we will read).
        right_ghost = cols.slice(ids.front());
        right_ghost_id = ids.front();
      }
      if (peer < rank && actual > 0) {
        // Donating our lowest (most-advanced) columns: keep the highest
        // donated column's values — our remaining columns' left boundary
        // for strips it has already covered.
        left_ghost = cols.slice(ids.back());
        left_ghost_id = ids.back();
        left_ghost_marker = cols.marker(ids.back());
      }
      Payload payload;
      if (peer < rank) {
        // Receiver attaches these columns at its right edge and needs
        // previous-sweep values of our (new) first column as its right
        // ghost / catch-up source.
        LeftEdge edge;
        if (actual > 0) edge = {ids.back() + 1, {cols.slice(ids.back() + 1)}};
        payload = sor::encode_move(cols, std::move(ids), std::move(edge));
      } else {
        // Receiver attaches these columns at its left edge; for strips our
        // (new) highest column has already covered this sweep it needs that
        // column's values as left boundary — those segments went out as
        // ghosts for a *different* column (whichever was highest at the
        // time) and will never be re-sent, so ship a snapshot with its
        // marker. Strips beyond the marker flow as ordinary ghosts.
        RightEdge edge;
        if (actual > 0) {
          const SliceId bnd = ids.front() - 1;
          edge = {bnd, cols.marker(bnd), {cols.slice(bnd)}};
        }
        payload = sor::encode_move(cols, std::move(ids), std::move(edge));
      }
      co_return std::make_pair(std::move(payload), actual);
    };
    ops.unpack = [&, rank](Payload payload, int peer) -> Task<int> {
      // Non-empty transfers carry the donor's boundary-column snapshot;
      // clamped (empty) transfers carry nothing.
      std::vector<SliceId> ids;
      if (peer > rank) {
        auto mv = sor::decode_move<LeftEdge>(payload, cols, rank, peer);
        if (mv.boundary) {
          right_ghost_id = mv.edge.id;
          right_ghost = std::move(mv.edge.column.values);
        }
        ids = std::move(mv.columns).ids();
      } else {
        auto mv = sor::decode_move<RightEdge>(payload, cols, rank, peer);
        if (mv.boundary) {
          left_ghost_id = mv.edge.id;
          left_ghost_marker = mv.edge.marker;
          left_ghost = std::move(mv.edge.column.values);
        }
        ids = std::move(mv.columns).ids();
      }
      NOWLB_CHECK(cols.is_staircase(),
                  "rank " << rank << " after integrating columns from peer "
                          << peer
                          << ": owned columns are not contiguous or their "
                             "markers increase left to right");
      if (!ids.empty()) {
        NOWLB_LOG(Debug, "sor") << "rank " << rank << " integrated cols ["
                                << ids.front() << ".." << ids.back()
                                << "] marker " << cols.marker(ids.front())
                                << ".." << cols.marker(ids.back())
                                << " from peer " << peer;
      }
      co_return static_cast<int>(ids.size());
    };

    lb::SlaveAgent agent = c.make_agent(ctx, rank, std::move(ops));

    // Ghost segments received for the current sweep but not (yet) needed:
    // work movement can change which column's segments we consume, and a
    // segment that looks irrelevant now can become our boundary after a
    // later transfer, so nothing from the current sweep is ever dropped.
    std::map<std::pair<int, SliceId>, std::vector<double>> ghost_stash;

    // Blocking receive of the left-boundary segment for (sweep, strip,
    // col), discarding prior-sweep ghosts and accepting interleaved
    // runtime messages — work movement can make the column local, in
    // which case nullopt is returned and the caller re-resolves.
    const auto recv_ghost =
        [&](int sweep, int strip,
            SliceId col) -> Task<std::optional<std::vector<double>>> {
      for (;;) {
        if (cols.owns(col)) co_return std::nullopt;
        if (const auto it = ghost_stash.find({strip, col});
            it != ghost_stash.end()) {
          auto seg = std::move(it->second);
          ghost_stash.erase(it);
          co_return seg;
        }
        shared->probe[rank] = {
            "ghost", {{"sweep", sweep}, {"strip", strip}, {"col", col}}};
        // Pump *everything*: the awaited segment can be superseded by a
        // work transfer, whose matching instructions come from the master
        // — listening only to the left peer can deadlock with the needed
        // message already sitting in our own mailbox.
        Message m = co_await ctx.recv(sim::kAnyTag, sim::kAnyPid);
        shared->probe[rank] = {"ghost-got", {{"tag", m.tag}}};
        if (m.tag == lb::kTagMove || m.tag == lb::kTagInstr) {
          co_await agent.accept_runtime(std::move(m));
          // Work movement (either direction) may have invalidated the
          // expectation — e.g. we may just have donated the very columns
          // whose boundary we were waiting for. Re-resolve from scratch.
          co_return std::nullopt;
        }
        NOWLB_CHECK(m.tag == kTagGhost, "unexpected tag " << m.tag);
        NOWLB_CHECK(m.src == left_pid,
                    "ghost from pid " << m.src << ", not the left rank");
        auto g = msg::decode<Ghost<>>(m.payload);
        if (g.sweep == sweep && g.strip == strip && g.col == col) {
          co_return std::move(g.rows);
        }
        NOWLB_CHECK(g.sweep <= sweep, "ghost from future sweep " << g.sweep);
        if (g.sweep == sweep) {
          ghost_stash[{g.strip, g.col}] = std::move(g.rows);
        }
        // prior-sweep ghosts are superseded; drop
      }
    };

    // ------------------------------ sweeps ------------------------------
    for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
      cols.set_markers_from(cols.lowest_id(), 0);
      ghost_stash.clear();
      left_ghost_id = -1;
      left_ghost_marker = 0;
      agent.begin_phase();

      // Communication outside the distributed loop: previous-sweep values
      // of each rank's first column go to the left neighbour.
      if (has_left) {
        const SliceId first = cols.lowest_id();
        SweepStart start{sweep, first, {cols.slice(first)}};
        Payload payload = msg::encode(start);
        co_await ctx.send(left_pid, kTagSweepStart, std::move(payload));
      }
      if (has_right) {
        const Time w0 = ctx.now();
        shared->probe[rank] = {"sweepstart", {{"sweep", sweep}}};
        Message m = co_await ctx.recv(kTagSweepStart, right_pid);
        agent.note_blocked(ctx.now() - w0);
        auto start = msg::decode<SweepStart>(m.payload);
        NOWLB_CHECK(start.sweep == sweep,
                    "sweep-start for sweep " << start.sweep);
        right_ghost_id = start.col;
        right_ghost = std::move(start.column.values);
      }

      // Strip loop, driven by the minimum marker: freshly caught-up
      // columns rewind it (catch-up), columns ahead of it are skipped
      // (set-aside) — §4.5 falls out of the marker discipline.
      for (;;) {
        const int p = min_marker();
        if (p >= strips) {
          // Sweep locally complete; run balance rounds until the master
          // declares the invocation done (we may receive more columns).
          shared->probe[rank] = {"drain", {{"sweep", sweep}}};
          co_await agent.drain();
          shared->probe[rank] = {"drained"};
          if (agent.phase_done()) break;
          continue;
        }
        const auto [rb, re] = strip_rows(p);

        // Columns to process this strip: marker == p, the top run
        // [firstw, highest]. The ghost pump can change ownership (work
        // movement), so the run is re-validated after every receive; a
        // change in the minimum marker restarts the strip loop entirely
        // (rewind / skip-ahead).
        SliceId firstw = 0;
        std::optional<std::vector<double>> lseg;
        bool restart_strip = false;
        for (;;) {
          if (min_marker() != p) {
            restart_strip = true;
            break;
          }
          firstw = run_begin(p);
          if (firstw - 1 == 0 || cols.owns(firstw - 1)) {
            lseg.reset();
            break;  // left values are local
          }
          if (firstw - 1 == left_ghost_id && p < left_ghost_marker) {
            // Use the donated-column snapshot (already computed this sweep
            // through its marker).
            const auto [srb, sre] = strip_rows(p);
            lseg.emplace(left_ghost.begin() + srb, left_ghost.begin() + sre);
            break;
          }
          const Time w0 = ctx.now();
          lseg = co_await recv_ghost(sweep, p, firstw - 1);
          agent.note_blocked(ctx.now() - w0);
          if (!lseg) continue;  // the column arrived via movement
          // Re-validate: movement during the wait may have changed the
          // work set or even the leftmost column the segment was for. A
          // fetched segment that is not used *now* goes into the stash —
          // a later rewind over the same strip will need it again.
          const bool usable = min_marker() == p && run_begin(p) == firstw;
          if (!usable) {
            ghost_stash[{p, firstw - 1}] = std::move(*lseg);
            lseg.reset();
            if (min_marker() != p) {
              restart_strip = true;
              break;
            }
            continue;
          }
          break;
        }
        if (restart_strip) continue;

        // Nothing moves before the next receive, so the run stays put.
        const SliceId hi = cols.highest_id();
        const int width = hi - firstw + 1;
        co_await ctx.compute(static_cast<Time>(re - rb) *
                             static_cast<Time>(width) * cfg.update_cost);
        if (cfg.real_compute) {
          for (int i = rb; i < re; ++i) {
            for (SliceId j = firstw; j <= hi; ++j) {
              auto& col = cols.slice(j);
              const double left =
                  (j - 1 == 0) ? bnd_left[static_cast<std::size_t>(i)]
                  : cols.owns(j - 1)
                      ? cols.slice(j - 1)[static_cast<std::size_t>(i)]
                      : (*lseg)[static_cast<std::size_t>(i - rb)];
              double right;
              if (j + 1 == n - 1) {
                right = bnd_right[static_cast<std::size_t>(i)];
              } else if (cols.owns(j + 1)) {
                right = cols.slice(j + 1)[static_cast<std::size_t>(i)];
              } else {
                NOWLB_CHECK(right_ghost_id == j + 1,
                            "right ghost holds column "
                                << right_ghost_id << ", need " << j + 1);
                right = right_ghost[static_cast<std::size_t>(i)];
              }
              col[static_cast<std::size_t>(i)] =
                  kC1 * (col[static_cast<std::size_t>(i - 1)] + left +
                         col[static_cast<std::size_t>(i + 1)] + right) +
                  kC2 * col[static_cast<std::size_t>(i)];
            }
          }
        }
        cols.set_markers_from(firstw, p + 1);

        // Pipeline: our highest column's new strip values are the right
        // rank's left boundary; it ends the top run, so it was processed
        // this strip.
        if (has_right) {
          NOWLB_LOG(Debug, "sor") << "rank " << rank << " sends ghost s" << sweep
                                  << " strip " << p << " col " << hi;
          Payload ghost = msg::encode(Ghost<View>{
              sweep, p, hi, View(cols.slice(hi)).subspan(rb, re - rb)});
          co_await ctx.send(right_pid, kTagGhost, std::move(ghost));
        }

        const double units = static_cast<double>(width) * (re - rb) / interior;
        shared->units_by_rank[static_cast<std::size_t>(rank)] += units;
        agent.add_units(units);
        shared->probe[rank] = {"hook", {{"strip", p}}};
        co_await agent.hook();
      }
    }

    // Write final values (and ownership) back for verification.
    for (SliceId id : cols.owned_ids()) {
      shared->grid[static_cast<std::size_t>(id)] =
          std::move(cols.slice(id));
      shared->final_owner[static_cast<std::size_t>(id)] = rank;
    }
  });
}

}  // namespace nowlb::apps
