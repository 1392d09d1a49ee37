// SOR application tests: bit-for-bit equivalence with sequential execution
// under pipelined execution, strip mining, and mid-sweep work movement with
// catch-up / set-aside reconciliation.
#include "apps/sor.hpp"

#include <gtest/gtest.h>

#include "apps/sor_move.hpp"
#include "data/dist_array.hpp"
#include "msg/serialize.hpp"
#include "sim/world.hpp"

namespace nowlb::apps {
namespace {

using sim::kMillisecond;
using sim::kSecond;

sim::WorldConfig test_world_config() {
  sim::WorldConfig wc;
  wc.host.quantum = 10 * kMillisecond;
  return wc;
}

lb::LbConfig test_lb() {
  lb::LbConfig cfg;
  cfg.min_period = 250 * kMillisecond;
  return cfg;
}

struct SorOutcome {
  double makespan_s;
  lb::MasterStats stats;
  std::shared_ptr<SorShared> shared;
};

SorOutcome run_sor(const SorConfig& cfg, int slaves,
                   const std::vector<int>& loaded = {},
                   lb::LbConfig lbc = test_lb(), bool balance = true) {
  sim::World w(test_world_config());
  auto shared = std::make_shared<SorShared>();
  sor_make_inputs(cfg, *shared);
  lb::ClusterConfig cc = sor_cluster_config(cfg, slaves, lbc);
  cc.use_master = balance;
  lb::Cluster cluster(w, cc);
  sor_build(cluster, cfg, shared);
  for (int rank : loaded) {
    cluster.add_load(rank, [](sim::Context& ctx) -> sim::Task<> {
      for (;;) co_await ctx.compute(kSecond);
    });
  }
  w.run();
  return {sim::to_seconds(w.now()), cluster.stats(), shared};
}

std::vector<std::vector<double>> reference(const SorConfig& cfg) {
  SorShared tmp;
  sor_make_inputs(cfg, tmp);
  sor_sequential(cfg, tmp.grid);
  return tmp.grid;
}

TEST(Sor, SpecMatchesTable1) {
  SorConfig cfg;
  const auto props = loop::analyze(sor_spec(cfg));
  EXPECT_TRUE(props.loop_carried_dependences);
  EXPECT_TRUE(props.communication_outside_loop);
  EXPECT_TRUE(props.repeated_execution);
  EXPECT_FALSE(props.varying_loop_bounds);
  EXPECT_FALSE(props.index_dependent_iteration_size);
  EXPECT_FALSE(props.data_dependent_iteration_size);
}

TEST(Sor, SequentialTimeMatchesPaperScale) {
  SorConfig cfg;  // 2000x2000 x 20 sweeps
  EXPECT_NEAR(sor_seq_time_s(cfg), 350.0, 5.0);
}

TEST(Sor, MatchesSequentialDedicated) {
  SorConfig cfg;
  cfg.n = 34;       // 32 interior columns
  cfg.sweeps = 4;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;  // sizeable strips
  auto out = run_sor(cfg, 3);
  EXPECT_EQ(out.shared->grid, reference(cfg));
}

TEST(Sor, MatchesSequentialSingleSlave) {
  SorConfig cfg;
  cfg.n = 20;
  cfg.sweeps = 3;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 1);
  EXPECT_EQ(out.shared->grid, reference(cfg));
}

TEST(Sor, MatchesSequentialUnderLoadWithMovement) {
  SorConfig cfg;
  cfg.n = 42;
  cfg.sweeps = 6;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 4, /*loaded=*/{1});
  EXPECT_EQ(out.shared->grid, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0)
      << "expected the load balancer to move columns";
}

TEST(Sor, MatchesSequentialWithAggressiveMovement) {
  // Very low threshold and short period force frequent movement, stressing
  // catch-up, set-aside, and ghost retro-sends.
  SorConfig cfg;
  cfg.n = 38;
  cfg.sweeps = 6;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  lb::LbConfig lbc = test_lb();
  lbc.min_period = 60 * kMillisecond;
  lbc.improvement_threshold = 0.02;
  lbc.profitability_check = false;
  auto out = run_sor(cfg, 3, /*loaded=*/{0, 2}, lbc);
  EXPECT_EQ(out.shared->grid, reference(cfg));
  EXPECT_GT(out.stats.units_moved, 0);
}

TEST(Sor, BlockDistributionStaysContiguous) {
  SorConfig cfg;
  cfg.n = 42;
  cfg.sweeps = 5;
  cfg.real_compute = true;
  cfg.update_cost = 2 * kMillisecond;
  auto out = run_sor(cfg, 4, /*loaded=*/{3});
  EXPECT_EQ(out.shared->grid, reference(cfg));
  // Final ownership must be a block partition: ranks non-decreasing across
  // interior columns (restricted movement preserves contiguity).
  const auto& owner = out.shared->final_owner;
  for (int j = 2; j < cfg.n - 1; ++j) {
    EXPECT_GE(owner[j], owner[j - 1])
        << "ownership not contiguous at column " << j;
  }
}

TEST(Sor, AutoGrainSizePicksReasonableBlock) {
  SorConfig cfg;
  cfg.n = 200;
  cfg.sweeps = 1;
  cfg.update_cost = 50 * sim::kMicrosecond;
  // per row (66 cols): 3.3 ms; target 15 ms -> ~4-5 rows per strip.
  auto out = run_sor(cfg, 3);
  EXPECT_GE(out.shared->block_rows_used, 3);
  EXPECT_LE(out.shared->block_rows_used, 6);
}

TEST(Sor, LoadBalancingHelpsUnderLoad) {
  // Scaled so per-strip work stays well above the scheduling quantum even
  // after the loaded rank sheds columns (the paper's grain-size rule);
  // below that scale, quantum-queueing noise drowns the rate signal.
  SorConfig cfg;
  cfg.n = 150;
  cfg.sweeps = 6;
  cfg.update_cost = sim::kMillisecond;
  auto with_dlb = run_sor(cfg, 4, /*loaded=*/{0});
  auto static_run =
      run_sor(cfg, 4, /*loaded=*/{0}, test_lb(), /*balance=*/false);
  // Dynamic balancing must clearly beat the static distribution when one
  // workstation is shared (Fig. 8's shape).
  EXPECT_LT(with_dlb.makespan_s, static_run.makespan_s * 0.90);
  EXPECT_GT(with_dlb.stats.units_moved, 0);
}

// ---- the work transfer's bytes ----

// A move's layout with every column written inline as a plain vector, the
// way transfers were encoded before columns became payload segments.
struct InlineLeftEdge {
  std::int32_t id = 0;
  std::vector<double> column;
  template <class A> void fields(A& a) { a(id, column); }
};

struct InlineRightEdge {
  std::int32_t id = 0;
  std::int32_t marker = 0;
  std::vector<double> column;
  template <class A> void fields(A& a) { a(id, marker, column); }
};

struct InlineColumn {
  std::int32_t id = 0;
  std::int32_t marker = 0;
  std::vector<double> contents;
  template <class A> void fields(A& a) { a(id, marker, contents); }
};

template <class Edge>
struct InlineMove {
  std::uint8_t boundary = 0;
  Edge edge;
  std::uint64_t col_bytes = 0;
  std::vector<InlineColumn> columns;
  template <class A>
  void fields(A& a) {
    a(boundary);
    if (boundary) a(edge);
    a(col_bytes, columns);
  }
};

// Columns 10..14 of three rows, markers 5,5,3,3,3: a staircase.
data::DistArray<double> move_source() {
  data::DistArray<double> a(3);
  const int markers[] = {5, 5, 3, 3, 3};
  for (int i = 0; i < 5; ++i) {
    a.add(10 + i, {i + 0.5, -1.0 * i, 1e-300 * i}, markers[i]);
  }
  return a;
}

template <class Edge>
msg::Bytes inline_bytes(const data::DistArray<double>& cols,
                        const std::vector<data::SliceId>& ids,
                        const Edge& edge) {
  InlineMove<Edge> mv{ids.empty() ? std::uint8_t{0} : std::uint8_t{1}, edge,
                      0, {}};
  for (const data::SliceId id : ids) {
    mv.columns.push_back({id, cols.marker(id), cols.slice(id)});
  }
  mv.col_bytes = msg::encoded_size(mv.columns);
  return msg::encode(mv).flatten();
}

// Both directions and an empty transfer flatten to the inline bytes, carry
// one segment per column, the snapshot's included, and decode back into the
// receiver's array.
TEST(SorMove, FlattenedTransfersMatchTheInlineBytes) {
  {  // leftward: the donor's lowest columns, then its new first column
    auto cols = move_source();
    const InlineLeftEdge inline_edge{12, cols.slice(12)};
    const msg::Bytes want = inline_bytes(cols, {10, 11}, inline_edge);
    msg::Payload got =
        sor::encode_move(cols, {10, 11}, sor::LeftEdge{12, {cols.slice(12)}});
    EXPECT_EQ(got.segments.size(), 3u);
    EXPECT_EQ(got.flatten(), want);
    data::DistArray<double> dst(3);
    const auto mv = sor::decode_move<sor::LeftEdge>(got, dst, 0, 1);
    EXPECT_EQ(mv.edge.id, 12);
    EXPECT_EQ(dst.owned_ids(), (std::vector<data::SliceId>{10, 11}));
    EXPECT_EQ(dst.marker(11), 5);
  }
  {  // rightward: the donor's highest columns, then its new last column
    auto cols = move_source();
    const InlineRightEdge inline_edge{12, 3, cols.slice(12)};
    const msg::Bytes want = inline_bytes(cols, {13, 14}, inline_edge);
    msg::Payload got = sor::encode_move(
        cols, {13, 14}, sor::RightEdge{12, 3, {cols.slice(12)}});
    EXPECT_EQ(got.segments.size(), 3u);
    EXPECT_EQ(got.flatten(), want);
    data::DistArray<double> dst(3);
    const auto mv = sor::decode_move<sor::RightEdge>(got, dst, 2, 1);
    EXPECT_EQ(mv.edge.marker, 3);
    EXPECT_EQ(dst.slice(14), (std::vector<double>{4.5, -4.0, 4e-300}));
  }
  {  // a clamped transfer: no snapshot, no columns
    auto cols = move_source();
    const msg::Bytes want = inline_bytes(cols, {}, InlineLeftEdge{});
    msg::Payload got = sor::encode_move(cols, {}, sor::LeftEdge{});
    EXPECT_TRUE(got.segments.empty());
    EXPECT_EQ(got.flatten(), want);
    EXPECT_EQ(want.size(), 1u + 8u + 4u);
    data::DistArray<double> dst(3);
    EXPECT_EQ(sor::decode_move<sor::LeftEdge>(got, dst, 0, 1).boundary, 0);
    EXPECT_EQ(cols.owned_count(), 5);
  }
}

// The sweep-start column flattens to [i32 sweep][i32 col][u64 n][n doubles]
// and travels as one segment: the sender's copy is the only one, and the
// receiver takes that vector.
TEST(SorMove, SweepStartCarriesItsColumnAsOneSegment) {
  const std::vector<double> column = {0.5, -2.0, 1e-300};
  sor::SweepStart start{7, 12, {column}};
  msg::Payload got = msg::encode(start);
  ASSERT_EQ(got.segments.size(), 1u);
  EXPECT_TRUE(start.column.values.empty());
  msg::Writer want;
  want.put<std::int32_t>(7).put<std::int32_t>(12).put_vec(column);
  EXPECT_EQ(got.flatten(), want.take());
  EXPECT_EQ(got.head.size(), 4u + 4u + 8u);

  const double* sent = got.segments.front().values.data();
  const auto back = msg::decode<sor::SweepStart>(got);
  EXPECT_EQ(back.sweep, 7);
  EXPECT_EQ(back.col, 12);
  EXPECT_EQ(back.column.values, column);
  EXPECT_EQ(back.column.values.data(), sent);
}

}  // namespace
}  // namespace nowlb::apps
