// Fault-model tests: lossy-network injection (drop / duplicate / delay),
// crash faults via World::kill, and the deadline receive they build on.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/attach.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"

namespace nowlb::sim {
namespace {

/// A network counter of an attached hub (attach registers all four).
std::uint64_t count(const obs::Observability& hub, const char* name) {
  const obs::Counter* c = hub.metrics.find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c != nullptr ? c->value() : 0;
}

WorldConfig lossy_base() {
  WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.latency = kMillisecond;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  return cfg;
}

TEST(FaultNet, DefaultConfigInjectsNothing) {
  const NetConfig def;
  EXPECT_FALSE(def.faulty());

  obs::Observability hub;
  World w(lossy_base());
  obs::attach(w, &hub);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    for (int i = 0; i < 4; ++i) co_await ctx.recv(7);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    for (int i = 0; i < 4; ++i) co_await ctx.send(rx, 7, Bytes(8));
  });
  w.run();
  EXPECT_EQ(count(hub, "sim_messages_dropped"), 0u);
  EXPECT_EQ(count(hub, "sim_messages_duplicated"), 0u);
}

TEST(FaultNet, DropLosesTheMessageAndCountsIt) {
  WorldConfig cfg = lossy_base();
  cfg.net.drop_prob = 1.0;
  obs::Observability hub;
  World w(cfg);
  obs::attach(w, &hub);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  bool got = false;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    auto m = co_await ctx.recv_until(7, kAnyPid, 50 * kMillisecond);
    got = m.has_value();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(8));
  });
  w.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(count(hub, "sim_messages_dropped"), 1u);
}

TEST(FaultNet, TagRangeGatesInjection) {
  WorldConfig cfg = lossy_base();
  cfg.net.drop_prob = 1.0;
  cfg.net.fault_tag_lo = 100;  // tag 7 is outside the faulty range
  cfg.net.fault_tag_hi = 200;
  obs::Observability hub;
  World w(cfg);
  obs::attach(w, &hub);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  bool got = false;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    auto m = co_await ctx.recv_until(7, kAnyPid, 50 * kMillisecond);
    got = m.has_value();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(8));
  });
  w.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(count(hub, "sim_messages_dropped"), 0u);
}

TEST(FaultNet, DuplicationDeliversASecondCopy) {
  WorldConfig cfg = lossy_base();
  cfg.net.dup_prob = 1.0;
  obs::Observability hub;
  World w(cfg);
  obs::attach(w, &hub);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  int copies = 0;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    while (co_await ctx.recv_until(7, kAnyPid, 100 * kMillisecond)) ++copies;
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(8));
  });
  w.run();
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(count(hub, "sim_messages_duplicated"), 1u);
}

// A duplicate is a deep copy: a payload's segments arrive twice, with equal
// values in buffers of their own.
TEST(FaultNet, DuplicationCopiesSegments) {
  WorldConfig cfg = lossy_base();
  cfg.net.dup_prob = 1.0;
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Payload sent(Bytes(16, std::byte{1}));
  sent.segments = {{8, {1.5, -2.5, 3.5}}, {16, {}}};
  std::vector<Payload> got;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    while (auto m = co_await ctx.recv_until(7, kAnyPid, 100 * kMillisecond)) {
      got.push_back(std::move(m->payload));
    }
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, sent);
  });
  w.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], sent);
  EXPECT_EQ(got[1], sent);
  EXPECT_NE(got[0].segments[0].values.data(),
            got[1].segments[0].values.data());
}

// The fault stream is a private seeded Rng: the same seed must reproduce
// the exact same loss pattern, run after run.
TEST(FaultNet, InjectionIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t fault_seed) {
    WorldConfig cfg = lossy_base();
    cfg.net.drop_prob = 0.5;
    cfg.net.fault_seed = fault_seed;
    World w(cfg);
    auto& h0 = w.add_host();
    auto& h1 = w.add_host();
    std::vector<std::size_t> sizes;  // payload size identifies the message
    Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
      while (auto m = co_await ctx.recv_until(7, kAnyPid, kSecond)) {
        sizes.push_back(m->payload.size());
      }
    });
    w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
      for (int i = 0; i < 32; ++i) co_await ctx.send(rx, 7, Bytes(i));
    });
    w.run();
    return sizes;
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), 32u);  // 32 straight survivals at p=0.5 is one in 4e9
  const auto c = run_once(43);
  EXPECT_NE(a, c);  // different stream (astronomically unlikely to collide)
}

TEST(FaultNet, ExtraDelayReordersAcrossLinks) {
  WorldConfig cfg = lossy_base();
  cfg.net.max_extra_delay = 20 * kMillisecond;
  World w(cfg);
  auto& ha = w.add_host();
  auto& hb = w.add_host();
  auto& hc = w.add_host();
  std::vector<std::size_t> order;
  Pid rx = w.spawn(hc, "rx", [&](Context& ctx) -> Task<> {
    while (auto m = co_await ctx.recv_until(7, kAnyPid, kSecond)) {
      order.push_back(m->payload.size());
    }
  });
  // Two senders on distinct links, racing: with up to 20 ms of jitter on a
  // 1 ms wire, some pair arrives out of send order.
  w.spawn(ha, "tx-a", [&](Context& ctx) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await ctx.send(rx, 7, Bytes(2 * i));
  });
  w.spawn(hb, "tx-b", [&](Context& ctx) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await ctx.send(rx, 7, Bytes(2 * i + 1));
  });
  w.run();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(RecvUntil, TimesOutAtTheDeadline) {
  World w(lossy_base());
  auto& h = w.add_host();
  Time woke = -1;
  bool got = true;
  w.spawn(h, "rx", [&](Context& ctx) -> Task<> {
    auto m = co_await ctx.recv_until(7, kAnyPid, 30 * kMillisecond);
    got = m.has_value();
    woke = ctx.now();
  });
  w.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(woke, 30 * kMillisecond);
}

TEST(RecvUntil, DeliversWhenTheMessageBeatsTheDeadline) {
  World w(lossy_base());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::optional<Message> got;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    got = co_await ctx.recv_until(7, kAnyPid, kSecond);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.sleep(5 * kMillisecond);
    co_await ctx.send(rx, 7, Bytes(3));
  });
  w.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), 3u);
}

// A killed essential process no longer gates run(): the watchdog shape the
// crash injector depends on.
TEST(WorldKill, KilledProcessStopsGatingTheRun) {
  World w(lossy_base());
  auto& h = w.add_host();
  Pid victim = w.spawn(h, "victim", [&](Context& ctx) -> Task<> {
    co_await ctx.recv(99);  // would block forever
  });
  w.spawn(h, "killer", [&](Context& ctx) -> Task<> {
    co_await ctx.sleep(kMillisecond);
    ctx.world().kill(victim);
    ctx.world().kill(victim);  // idempotent
  });
  w.run();  // terminates: the kill retired the blocked essential process
  EXPECT_EQ(w.essential_remaining(), 0u);
}

TEST(WorldKill, MessagesToTheDeadAreDiscarded) {
  World w(lossy_base());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Pid victim = w.spawn(h1, "victim", [&](Context& ctx) -> Task<> {
    co_await ctx.recv(99);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    ctx.world().kill(victim);
    co_await ctx.send(victim, 7, Bytes(8));  // into the closed mailbox
    co_await ctx.sleep(50 * kMillisecond);
  });
  w.run();  // no crash, no stuck delivery
}

}  // namespace
}  // namespace nowlb::sim
