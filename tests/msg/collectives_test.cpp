#include "msg/collectives.hpp"

#include <gtest/gtest.h>

#include "msg/serialize.hpp"
#include "sim/world.hpp"

namespace nowlb::msg {
namespace {

using sim::Bytes;
using sim::Context;
using sim::Pid;
using sim::Task;
using sim::World;

Bytes payload_of(int v) { return encode(v); }

int value_of(const Bytes& b) { return decode<int>(b); }

class CollectivesTest : public ::testing::Test {
 protected:
  // Spawn `n` processes on distinct hosts running `body(ctx, rank)`.
  template <typename Body>
  std::vector<Pid> spawn_group(World& w, int n, Body body) {
    std::vector<Pid> pids;
    for (int i = 0; i < n; ++i) {
      auto& h = w.add_host();
      pids.push_back(w.spawn(h, "p" + std::to_string(i),
                             [body, i](Context& ctx) -> Task<> {
                               co_await body(ctx, i);
                             }));
    }
    return pids;
  }
};

TEST_F(CollectivesTest, BroadcastDeliversToAll) {
  World w;
  std::vector<int> got(4, -1);
  std::vector<Pid> group{0, 1, 2, 3};
  auto body = [&](Context& ctx, int rank) -> Task<> {
    Bytes mine = rank == 2 ? payload_of(77) : Bytes{};
    Bytes result = co_await broadcast(ctx, group, /*root=*/2, 42, mine);
    got[rank] = value_of(result);
  };
  spawn_group(w, 4, body);
  w.run();
  EXPECT_EQ(got, (std::vector<int>{77, 77, 77, 77}));
}

TEST_F(CollectivesTest, GatherCollectsInRankOrder) {
  World w;
  std::vector<int> collected;
  std::vector<Pid> group{0, 1, 2};
  auto body = [&](Context& ctx, int rank) -> Task<> {
    auto all = co_await gather(ctx, group, /*root=*/0, 43,
                               payload_of(rank * 10));
    if (rank == 0) {
      for (const auto& b : all) collected.push_back(value_of(b));
    }
  };
  spawn_group(w, 3, body);
  w.run();
  EXPECT_EQ(collected, (std::vector<int>{0, 10, 20}));
}

TEST_F(CollectivesTest, BarrierSynchronizes) {
  World w;
  std::vector<sim::Time> release_times(3, -1);
  std::vector<Pid> group{0, 1, 2};
  auto body = [&](Context& ctx, int rank) -> Task<> {
    // Each rank computes a different amount before the barrier.
    co_await ctx.compute((rank + 1) * 100 * sim::kMillisecond);
    co_await barrier(ctx, group, /*coordinator=*/0, 44);
    release_times[rank] = ctx.now();
  };
  spawn_group(w, 3, body);
  w.run();
  // No rank is released before the slowest (300 ms) has arrived.
  for (auto t : release_times) EXPECT_GE(t, 300 * sim::kMillisecond);
}

TEST_F(CollectivesTest, GatherRejectsOutsiders) {
  World w;
  std::vector<Pid> group{0, 1};
  // pid 2 sends a stray message with the gather tag to the root.
  auto body0 = [&](Context& ctx) -> Task<> {
    EXPECT_THROW(
        {
          auto all = co_await gather(ctx, group, 0, 45, payload_of(0));
          (void)all;
        },
        CheckFailure);
  };
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  auto& h2 = w.add_host();
  w.spawn(h0, "root", [&](Context& ctx) -> Task<> { co_await body0(ctx); });
  w.spawn(h1, "member", [](Context& ctx) -> Task<> {
    co_await ctx.sleep(10 * sim::kSecond);  // stays silent
    co_return;
  }, /*essential=*/false);
  w.spawn(h2, "outsider", [](Context& ctx) -> Task<> {
    co_await ctx.send(0, 45, payload_of(99));
  });
  w.run();
}

}  // namespace
}  // namespace nowlb::msg
