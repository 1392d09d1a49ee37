// World integration tests: messaging, network timing, teardown, errors,
// and the rule that a process must not finish with a message queued.
#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/check.hpp"

namespace nowlb::sim {
namespace {

Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string to_string(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

WorldConfig zero_overhead() {
  WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.latency = kMillisecond;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  return cfg;
}

TEST(World, PingPongAcrossHosts) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::string got;

  Pid ponger = w.spawn(h1, "ponger", [&](Context& ctx) -> Task<> {
    Message m = co_await ctx.recv(1);
    co_await ctx.send(m.src, 2,
                      to_bytes("pong:" + to_string(m.payload.head)));
  });
  w.spawn(h0, "pinger", [&](Context& ctx) -> Task<> {
    co_await ctx.send(ponger, 1, to_bytes("hello"));
    Message m = co_await ctx.recv(2);
    got = to_string(m.payload.head);
  });
  w.run();
  EXPECT_EQ(got, "pong:hello");
}

TEST(World, MessageLatencyIsModelled) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Time arrival = -1;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    co_await ctx.recv(7);
    arrival = ctx.now();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(0));
  });
  w.run();
  EXPECT_EQ(arrival, kMillisecond);  // pure latency, no payload / overheads
}

TEST(World, BandwidthAddsTransmissionTime) {
  WorldConfig cfg = zero_overhead();
  cfg.net.bandwidth_bps = 1e6;  // 1 MB/s
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Time arrival = -1;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    co_await ctx.recv(7);
    arrival = ctx.now();
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(100'000));  // 0.1s at 1 MB/s
  });
  w.run();
  EXPECT_NEAR(to_seconds(arrival), 0.101, 1e-6);
}

TEST(World, LinkSerializesBackToBackMessages) {
  WorldConfig cfg = zero_overhead();
  cfg.net.bandwidth_bps = 1e6;
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  std::vector<Time> arrivals;
  Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
    for (int i = 0; i < 2; ++i) {
      co_await ctx.recv(7);
      arrivals.push_back(ctx.now());
    }
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 7, Bytes(100'000));
    co_await ctx.send(rx, 7, Bytes(100'000));
  });
  w.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message waits for the first's transmission to finish.
  EXPECT_NEAR(to_seconds(arrivals[1] - arrivals[0]), 0.1, 1e-6);
}

TEST(World, SelectiveReceiveByTag) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  std::vector<int> order;
  Pid rx = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Message a = co_await ctx.recv(2);  // deliberately receive tag 2 first
    order.push_back(a.tag);
    Message b = co_await ctx.recv(1);
    order.push_back(b.tag);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 1, Bytes{});
    co_await ctx.send(rx, 2, Bytes{});
  });
  w.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(World, SelectiveReceiveBySource) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  Pid rx_pid{};
  std::vector<Pid> sources;
  rx_pid = w.spawn(h0, "rx", [&](Context& ctx) -> Task<> {
    Message a = co_await ctx.recv(kAnyTag, 2);  // from tx2 only
    sources.push_back(a.src);
    Message b = co_await ctx.recv(kAnyTag, kAnyPid);
    sources.push_back(b.src);
  });
  w.spawn(h0, "tx1", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx_pid, 9, Bytes{});
  });
  w.spawn(h0, "tx2", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx_pid, 9, Bytes{});
  });
  w.run();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], 2);
  EXPECT_EQ(sources[1], 1);
}

TEST(World, ProcessErrorPropagatesFromRun) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  w.spawn(h0, "bad", [](Context& ctx) -> Task<> {
    co_await ctx.compute(kMillisecond);
    throw std::runtime_error("app failure");
  });
  EXPECT_THROW(w.run(), std::runtime_error);
}

TEST(World, NonEssentialProcessDoesNotBlockCompletion) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  w.spawn(h0, "main", [](Context& ctx) -> Task<> {
    co_await ctx.compute(10 * kMillisecond);
  });
  w.spawn(h0, "forever", [](Context& ctx) -> Task<> {
    for (;;) co_await ctx.compute(kSecond);
  }, /*essential=*/false);
  w.run();  // must terminate
  SUCCEED();
}

TEST(World, TeardownWithSuspendedProcessesDoesNotLeak) {
  // Exercised under ASan in CI-style runs; here we just make sure
  // destruction with live coroutines doesn't crash.
  auto run = [] {
    World w;
    auto& h0 = w.add_host();
    w.spawn(h0, "blocked-recv", [](Context& ctx) -> Task<> {
      co_await ctx.recv(99);  // never satisfied
    }, /*essential=*/false);
    w.spawn(h0, "main", [](Context& ctx) -> Task<> {
      co_await ctx.compute(kMillisecond);
    });
    w.run();
  };
  EXPECT_NO_THROW(run());
}

TEST(World, SendOverheadChargesSenderCpu) {
  WorldConfig cfg = zero_overhead();
  cfg.msg.send_overhead = 5 * kMillisecond;
  World w(cfg);
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Pid rx = w.spawn(h1, "rx", [](Context& ctx) -> Task<> {
    co_await ctx.recv(1);
  });
  Pid tx = w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 1, Bytes{});
  });
  w.run();
  EXPECT_EQ(w.cpu_used(tx), 5 * kMillisecond);
}

TEST(World, RecvOverheadChargesReceiverCpu) {
  WorldConfig cfg = zero_overhead();
  cfg.msg.recv_overhead = 3 * kMillisecond;
  World w(cfg);
  auto& h0 = w.add_host();
  Pid rx = w.spawn(h0, "rx", [](Context& ctx) -> Task<> {
    co_await ctx.recv(1);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 1, Bytes{});
  });
  w.run();
  EXPECT_EQ(w.cpu_used(rx), 3 * kMillisecond);
}

TEST(World, FinishingWithAnUnreceivedMessageFailsTheRun) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Pid rx = w.spawn(h1, "rx", [](Context& ctx) -> Task<> {
    co_await ctx.recv(1);
    co_await ctx.compute(10 * kMillisecond);  // tag 9005 lands meanwhile
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 1, Bytes{});
    co_await ctx.send(rx, 9005, Bytes{});  // nothing ever receives it
  });
  try {
    w.run();
    FAIL() << "a stray message went unnoticed";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rx finished with 1 unreceived message(s)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("tag 9005 from tx"), std::string::npos) << what;
  }
}

TEST(World, MessageArrivingAfterItsReceiverFinishedIsNotAnError) {
  World w(zero_overhead());
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  Pid rx = w.spawn(h1, "rx", [](Context& ctx) -> Task<> {
    co_await ctx.recv(1);
  });
  w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
    co_await ctx.send(rx, 1, Bytes{});
    co_await ctx.compute(5 * kMillisecond);
    co_await ctx.send(rx, 2, Bytes{});  // lands after rx has returned
    co_await ctx.compute(5 * kMillisecond);
  });
  EXPECT_NO_THROW(w.run());
  EXPECT_EQ(w.process(rx).mailbox().queued(), 1u);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w;  // default config incl. overheads
    auto& h0 = w.add_host();
    auto& h1 = w.add_host();
    Time result = 0;
    Pid rx = w.spawn(h1, "rx", [&](Context& ctx) -> Task<> {
      for (int i = 0; i < 10; ++i) {
        co_await ctx.recv(1);
        co_await ctx.compute(7 * kMillisecond);
      }
      result = ctx.now();
    });
    w.spawn(h0, "tx", [&](Context& ctx) -> Task<> {
      for (int i = 0; i < 10; ++i) {
        co_await ctx.compute(3 * kMillisecond);
        co_await ctx.send(rx, 1, Bytes(1024));
      }
    });
    w.spawn(h1, "load", [](Context& ctx) -> Task<> {
      for (;;) co_await ctx.compute(kSecond);
    }, /*essential=*/false);
    w.run();
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nowlb::sim
