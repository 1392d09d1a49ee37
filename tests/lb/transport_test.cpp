// Reliable-transport unit tests: classic perfect-channel semantics (in
// order, exactly once) recovered on top of a network that drops,
// duplicates and reorders.
#include "lb/transport.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/attach.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"

namespace nowlb::lb {
namespace {

using sim::Bytes;
using sim::Context;
using sim::Pid;
using sim::Task;
using sim::Time;
using sim::World;
using sim::WorldConfig;

constexpr sim::Tag kData = 7;
constexpr sim::Tag kBye = 8;

WorldConfig lossy_on_data_tag() {
  WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.latency = sim::kMillisecond;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  cfg.net.drop_prob = 0.3;
  cfg.net.dup_prob = 0.2;
  cfg.net.max_extra_delay = 5 * sim::kMillisecond;
  cfg.net.fault_tag_lo = kData;  // the control tag kBye stays reliable
  cfg.net.fault_tag_hi = kData;
  return cfg;
}

TransportConfig enabled_transport() {
  TransportConfig t;
  t.enabled = true;
  return t;
}

/// A transport counter of an attached hub (the first transport event
/// registers all seven).
std::uint64_t count(const obs::Observability& hub, const char* name) {
  const obs::Counter* c = hub.metrics.find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c != nullptr ? c->value() : 0;
}

TEST(Transport, InOrderExactlyOnceOverLossyNetwork) {
  constexpr int kCount = 50;
  obs::Observability hub;
  World w(lossy_on_data_tag());
  obs::attach(w, &hub);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::vector<std::size_t> got;  // payload size identifies the message

  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    for (int i = 0; i < kCount; ++i) {
      sim::Message m = co_await ctx.recv(kData);
      got.push_back(m.payload.size());
    }
    // Stay alive (acking retransmits) until the sender has drained.
    co_await ctx.recv(kBye);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    for (int i = 0; i < kCount; ++i) {
      co_await t.send(rx, kData, Bytes(i));
    }
    co_await t.drain();
    co_await ctx.send(rx, kBye, Bytes(0));
  });
  w.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], static_cast<std::size_t>(i)) << "at position " << i;
  }
  // At 30 % loss over 50 messages plus acks, silence would be a miracle.
  // Only the sender retransmits or gives up: the receiver sends only acks.
  EXPECT_GT(count(hub, "transport_retransmits"), 0u);
  EXPECT_EQ(count(hub, "transport_gave_up"), 0u);
}

TEST(Transport, DrainCompletesOnceEverythingIsAcked) {
  World w(lossy_on_data_tag());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  bool drained = false;
  bool received = false;

  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    co_await ctx.recv(kData);
    received = true;
    co_await ctx.recv(kBye);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    co_await t.send(rx, kData, Bytes(16));
    co_await t.drain();
    drained = !t.has_pending();
    co_await ctx.send(rx, kBye, Bytes(0));
  });
  w.run();
  EXPECT_TRUE(received);
  EXPECT_TRUE(drained);
}

TEST(Transport, BlackholedPeerGetsNothingAndCostsNothing) {
  WorldConfig cfg = lossy_on_data_tag();
  cfg.net.drop_prob = 0;  // isolate the blackhole from network loss
  cfg.net.dup_prob = 0;
  cfg.net.max_extra_delay = 0;
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  bool got = true;

  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    auto m = co_await ctx.recv_until(kData, sim::kAnyPid, sim::kSecond);
    got = m.has_value();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, enabled_transport(), {kData}, nullptr);
    t.blackhole(rx);
    co_await t.send(rx, kData, Bytes(16));
    co_await t.drain();  // nothing pending: the send was discarded
    EXPECT_FALSE(t.has_pending());
  });
  w.run();
  EXPECT_FALSE(got);
}

TEST(Transport, DisabledIsAPlainSend) {
  WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::size_t got = 0;

  // No Transport on the receiver at all: a disabled sender must emit bare
  // (unenveloped) messages a plain recv understands.
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    sim::Message m = co_await ctx.recv(kData);
    got = m.payload.size();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    Transport t(ctx, TransportConfig{}, {kData}, nullptr);
    co_await t.send(rx, kData, Bytes(23));
    co_await t.drain();  // no-op when disabled
  });
  w.run();
  EXPECT_EQ(got, 23u);
}

}  // namespace
}  // namespace nowlb::lb
