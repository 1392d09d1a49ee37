// Trace bus and Chrome trace_event exporter: event capture, capacity cap,
// the bus's block store (order across blocks, stable addresses, blocks
// reused after clear), JSON structure (metadata, instants, complete spans,
// escaping), monotonic timestamps, pid/tid -> host/lane mapping, pins of
// the bytes the recorder's exports hold for five runs, live and from their
// run files, and the zero-perturbation guarantee (attaching the recorder
// never changes the dispatched event sequence of a simulation).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "check/scenario.hpp"
#include "exp/harness.hpp"
#include "exp/registry.hpp"
#include "load/generators.hpp"
#include "obs/causal.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/runfile.hpp"
#include "sim/time.hpp"

namespace nowlb {
namespace {

TEST(TraceBus, CapturesInstantsAndSpans) {
  obs::TraceBus bus;
  bus.instant(5 * sim::kMicrosecond, 1, 2, "msg", "msg.send",
              {"bytes", 64.0});
  bus.complete(sim::kMicrosecond, 3 * sim::kMicrosecond, 0, 1, "tx",
               "tx.drain");
  ASSERT_EQ(bus.events().size(), 2u);
  EXPECT_EQ(bus.events()[0].phase, obs::TraceEvent::Phase::kInstant);
  EXPECT_STREQ(bus.events()[0].a0.key, "bytes");
  EXPECT_EQ(bus.events()[1].phase, obs::TraceEvent::Phase::kComplete);
  EXPECT_EQ(bus.events()[1].dur, 2 * sim::kMicrosecond);
  EXPECT_EQ(bus.dropped(), 0u);
}

constexpr std::size_t kBlock = obs::TraceEvents::kBlockEvents;

TEST(TraceBus, CapacityCapCountsDrops) {
  obs::TraceBus bus;
  bus.set_capacity(2);
  for (int i = 0; i < 5; ++i) bus.instant(i, 0, 0, "c", "n");
  EXPECT_EQ(bus.events().size(), 2u);
  EXPECT_EQ(bus.dropped(), 3u);
  bus.clear();
  EXPECT_TRUE(bus.events().empty());
  EXPECT_EQ(bus.dropped(), 0u);

  // A cap that falls inside the second block.
  bus.set_capacity(kBlock + 10);
  for (std::size_t i = 0; i < kBlock + 25; ++i) {
    bus.instant(static_cast<sim::Time>(i), 0, 0, "c", "n");
  }
  EXPECT_EQ(bus.events().size(), kBlock + 10);
  EXPECT_EQ(bus.dropped(), 15u);
  EXPECT_EQ(bus.events()[kBlock + 9].t, static_cast<sim::Time>(kBlock + 9));
}

// The bus stores events in fixed blocks; reads cross the block boundaries
// in push order, by index and by range-for, for both kinds of event.
TEST(TraceBus, EventsSpanBlocksInOrder) {
  constexpr std::size_t n = 2 * kBlock + kBlock / 2;
  obs::TraceBus bus;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<sim::Time>(i);
    if (i % 3 == 0) {
      bus.complete(t, t + 2, 0, 1, "c", "span", {"i", static_cast<double>(i)});
    } else {
      bus.instant(t, 0, 1, "c", "point", {"i", static_cast<double>(i)});
    }
  }
  ASSERT_EQ(bus.events().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& e = bus.events()[i];
    ASSERT_EQ(e.t, static_cast<sim::Time>(i));
    ASSERT_EQ(e.a0.value, static_cast<double>(i));
    ASSERT_EQ(e.phase, i % 3 == 0 ? obs::TraceEvent::Phase::kComplete
                                  : obs::TraceEvent::Phase::kInstant);
    ASSERT_EQ(e.dur, i % 3 == 0 ? 2 : 0);
  }
  std::size_t i = 0;
  for (const obs::TraceEvent& e : bus.events()) {
    ASSERT_EQ(e.t, static_cast<sim::Time>(i));
    ++i;
  }
  EXPECT_EQ(i, n);
}

// An append never moves an earlier event: event 0 keeps its address
// while three more blocks fill.
TEST(TraceBus, EventsNeverMove) {
  obs::TraceBus bus;
  bus.instant(0, 0, 0, "c", "first");
  const obs::TraceEvent* first = &bus.events()[0];
  for (std::size_t i = 1; i <= 3 * kBlock; ++i) {
    bus.instant(static_cast<sim::Time>(i), 0, 0, "c", "n");
  }
  ASSERT_EQ(bus.events().size(), 3 * kBlock + 1);
  EXPECT_EQ(&bus.events()[0], first);
  EXPECT_STREQ(bus.events()[0].name, "first");
}

// clear() keeps the blocks: a shorter second run is written into the
// first run's storage and reads back only its own events.
TEST(TraceBus, ClearKeepsBlocksForTheNextRun) {
  obs::TraceBus bus;
  for (std::size_t i = 0; i < 3 * kBlock; ++i) {
    bus.instant(static_cast<sim::Time>(i), 0, 0, "c", "run1");
  }
  const obs::TraceEvent* block0 = &bus.events()[0];
  const obs::TraceEvent* block1 = &bus.events()[kBlock];
  bus.clear();
  EXPECT_TRUE(bus.events().empty());

  constexpr std::size_t n = kBlock + kBlock / 2;
  for (std::size_t i = 0; i < n; ++i) {
    bus.instant(static_cast<sim::Time>(i), 1, 1, "c", "run2");
  }
  ASSERT_EQ(bus.events().size(), n);
  EXPECT_EQ(&bus.events()[0], block0);
  EXPECT_EQ(&bus.events()[kBlock], block1);
  std::size_t i = 0;
  for (const obs::TraceEvent& e : bus.events()) {
    ASSERT_STREQ(e.name, "run2");
    ASSERT_EQ(e.t, static_cast<sim::Time>(i));
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(ChromeTrace, EmitsMetadataEventsAndArgs) {
  obs::TraceBus bus;
  bus.name_host(3, "host3");
  bus.name_lane(3, 7, "slave\"2\"");  // exercises string escaping
  bus.instant(1500, 3, 7, "lb", "lb.report", {"rank", 2.0});
  bus.complete(0, 2 * sim::kMicrosecond, 3, 7, "lb", "lb.round");
  std::ostringstream os;
  obs::write_chrome_trace(os, bus);
  const std::string json = os.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
                      "\"tid\":0,\"args\":{\"name\":\"host3\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
                      "\"tid\":7,\"args\":{\"name\":\"slave\\\"2\\\"\"}"),
            std::string::npos);
  // 1500 ns is not a whole microsecond: fractional ts with 3 decimals.
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":1.500,\"s\":\"t\",\"pid\":3,"
                      "\"tid\":7,\"args\":{\"rank\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":0,\"dur\":2,"), std::string::npos);
}

TEST(ChromeTrace, TimestampsAreSortedAndNonNegative) {
  // A span is recorded when it ends, after events that began later.
  obs::TraceBus bus;
  bus.instant(9 * sim::kMicrosecond, 0, 0, "c", "late");
  bus.instant(1 * sim::kMicrosecond, 0, 0, "c", "early");
  std::ostringstream os;
  obs::write_chrome_trace(os, bus);
  const std::string json = os.str();
  EXPECT_LT(json.find("early"), json.find("late"));
}

// End-to-end: a simulated run through the harness emits a loadable trace
// whose ts values are monotonic and whose pid/tid pairs are all named.
TEST(ChromeTrace, HarnessRunExportsNamedMonotonicTrace) {
  obs::Observability hub;
  apps::MmConfig mm;
  mm.n = 48;
  exp::ExperimentConfig cfg;
  cfg.slaves = 3;
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.obs = &hub;
  exp::run_mm(mm, cfg);

  ASSERT_FALSE(hub.trace.events().empty());
  EXPECT_EQ(hub.trace.dropped(), 0u);
  // Every event's (host, lane) has thread_name metadata (the rank/agent
  // mapping Perfetto shows), and every host is named.
  for (const obs::TraceEvent& e : hub.trace.events()) {
    EXPECT_TRUE(hub.trace.lanes().count({e.host, e.lane}) == 1 ||
                hub.trace.hosts().count(e.host) == 1)
        << "unnamed pid/tid " << e.host << "/" << e.lane;
    EXPECT_GE(e.t, 0);
    EXPECT_GE(e.dur, 0);
  }
  std::ostringstream os;
  obs::write_chrome_trace(os, hub.trace);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"master\""), std::string::npos);
  EXPECT_NE(json.find("\"slave0\""), std::string::npos);
  EXPECT_NE(json.find("\"lb.decision\""), std::string::npos);
  EXPECT_NE(json.find("\"msg.send\""), std::string::npos);
  // A harness run's causal annotations satisfy all five well-formedness
  // rules of obs/causal.cpp.
  EXPECT_TRUE(obs::build_causal_graph(hub.trace, hub.ledger).well_formed());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Everything the recorder exports: the Chrome trace, the Prometheus dump
/// and the explained decision ledger, concatenated.
std::string recorder_output(const obs::Observability& hub) {
  std::ostringstream os;
  obs::write_chrome_trace(os, hub.trace);
  os << hub.metrics.prometheus_text() << hub.ledger.explain();
  return os.str();
}

/// The same exports from the hub's run file, written and loaded back. The
/// file is canonical: writing the loaded run again gives the same bytes.
std::string reloaded_output(const obs::Observability& hub) {
  std::ostringstream file;
  obs::write_runfile(file, hub.trace, hub.ledger,
                     hub.metrics.prometheus_text(), {{"pin", "yes"}});
  std::istringstream is(file.str());
  obs::LoadedRun run;
  std::string error;
  EXPECT_TRUE(obs::load_runfile(is, run, error)) << error;
  std::ostringstream again;
  obs::write_runfile(again, run.trace, run.ledger, run.metrics, run.meta);
  EXPECT_EQ(again.str(), file.str());
  std::ostringstream os;
  obs::write_chrome_trace(os, run.trace);
  os << run.metrics << run.ledger.explain();
  return os.str();
}

// Pins every byte the flight recorder writes, so a change to how the
// runtime reports its events cannot alter a trace event, a metric or a
// ledger line unnoticed. MM seed 14 under message faults and a crash
// covers eviction, orphan adoption, moves, duplicates, gave-up and held
// arrivals; SOR covers restricted movement under faults; LU the
// done-flag protocol; the harness run a loaded paper-scale MM, which must
// dispatch the same engine events as its bare twin. Each run's file is
// lossless: its exports hash to the same pin.
TEST(RecorderPin, OutputBytesAreUnchanged) {
  check::FaultPlan lossy;
  lossy.drop_rate = 0.05;
  lossy.dup_rate = 0.02;
  lossy.reorder_delay = 500 * sim::kMicrosecond;
  check::FaultPlan crash = lossy;
  crash.kill_rank = 1;
  crash.kill_round = 3;
  struct Pin {
    check::App app;
    std::uint64_t seed;
    check::FaultPlan plan;
    std::size_t events;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {check::App::kMm, 14, crash, 561, 0x4b94903b6d26630full},
      {check::App::kSor, 3, lossy, 1394, 0x4f249840e7613e02ull},
      {check::App::kLu, 5, {}, 434, 0x826d63e4b8ba00afull},
  };
  for (const Pin& pin : pins) {
    check::Scenario sc = check::generate_scenario(pin.seed, pin.app);
    check::apply_fault_plan(sc, pin.plan);
    obs::Observability hub;
    const check::FuzzResult res =
        check::run_scenario(sc, check::InvariantSet::Fault::kNone, &hub);
    EXPECT_TRUE(res.ok) << sc.describe();
    EXPECT_EQ(hub.trace.events().size(), pin.events) << sc.describe();
    EXPECT_EQ(fnv1a(recorder_output(hub)), pin.hash) << sc.describe();
    EXPECT_EQ(fnv1a(reloaded_output(hub)), pin.hash) << sc.describe();
  }

  obs::Observability hub;
  apps::MmConfig mm;
  mm.n = 160;
  exp::ExperimentConfig cfg;
  cfg.slaves = 4;
  cfg.world = exp::paper_world();
  cfg.lb = exp::paper_lb();
  cfg.loads.push_back({0, [] { return load::constant(); }});
  const exp::Measurement bare = exp::run_mm(mm, cfg);
  cfg.obs = &hub;
  const exp::Measurement recorded = exp::run_mm(mm, cfg);
  EXPECT_EQ(recorded.trace_hash, bare.trace_hash);
  EXPECT_EQ(hub.trace.events().size(), 442u);
  EXPECT_EQ(fnv1a(recorder_output(hub)), 0xcfd313a280c13f96ull);
  EXPECT_EQ(fnv1a(reloaded_output(hub)), 0xcfd313a280c13f96ull);
}

// nowlb-inspect's default Fig. 9 point (n = 500, 4 slaves, the 20 s
// oscillating load), the run perfbench's mm_oscillating records: its
// 17,020 events fill 17 of the trace bus's 1,024-event blocks, where the
// pins above stay within two.
TEST(RecorderPin, PaperSizeFig9PointSpansManyBlocks) {
  const auto& figs = exp::figures();
  const auto fig = std::find_if(figs.begin(), figs.end(),
                                [](const exp::Figure& f) {
                                  return std::string(f.name) ==
                                         "fig9.mm_oscillating";
                                });
  ASSERT_NE(fig, figs.end());
  exp::ExperimentConfig cfg = exp::config(fig->workload, 4);
  obs::Observability hub;
  cfg.obs = &hub;
  exp::run(fig->workload, cfg);
  EXPECT_EQ(hub.trace.events().size(), 17'020u);
  EXPECT_EQ(hub.ledger.records().size(), 286u);
  EXPECT_EQ(fnv1a(recorder_output(hub)), 0x24eec38acfff0a69ull);
  EXPECT_EQ(fnv1a(reloaded_output(hub)), 0x24eec38acfff0a69ull);
}

// The acceptance property: a seeded run dispatches the bit-identical
// event sequence with the flight recorder attached and without.
TEST(ZeroPerturbation, TraceHashIsIdenticalWithRecorderAttached) {
  for (const check::App app :
       {check::App::kMm, check::App::kSor, check::App::kLu}) {
    const check::Scenario sc = check::generate_scenario(11, app);
    const check::FuzzResult bare = check::run_scenario(sc);
    obs::Observability hub;
    const check::FuzzResult rec =
        check::run_scenario(sc, check::InvariantSet::Fault::kNone, &hub);
    EXPECT_EQ(bare.trace_hash, rec.trace_hash) << app_name(app);
    EXPECT_TRUE(rec.ok);
    EXPECT_FALSE(hub.trace.events().empty());
  }
}

}  // namespace
}  // namespace nowlb
