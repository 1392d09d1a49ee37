// The nowlb benchmark suite: the micro benchmarks BENCH_*.json reports.
//
// Events/sec through the discrete-event core (priority-queue drain, timer
// schedule/cancel churn), messages/sec through the reliable transport
// (clean and lossy links), the two serialization hot paths (protocol
// framing, slice pack/unpack), a SOR-shaped column move, SOR's strip loop
// over the slice store, the flight recorder's tax on a reduced MM run, and
// its append rate into a fresh trace bus.
// Whole figure runs and fuzz scenarios are timed end to end by perfbench
// (perfbench/README.md).
//
// Every workload is seeded and virtual-time driven, so the work per sample
// is bit-identical across repetitions and commits; only host speed varies.
// Workload sizes are the same in --quick mode (it only cuts reps/warmup),
// so a quick report measures the same quantities as a full one.
#include <utility>
#include <vector>

#include "data/dist_array.hpp"
#include "exp/registry.hpp"
#include "lb/protocol.hpp"
#include "lb/transport.hpp"
#include "msg/serialize.hpp"
#include "perf/bench.hpp"
#include "perf/wallclock.hpp"
#include "sim/engine.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace nowlb::perf {

namespace {

// ---- engine micro ----

/// Schedule n events at shuffled virtual times, then drain the queue.
double engine_drain(const BenchOptions&,
                    std::map<std::string, double>& extra) {
  constexpr int n = 200'000;
  sim::Engine eng;
  Rng rng(42);
  int fired = 0;
  const double t0 = wall_seconds();
  for (int i = 0; i < n; ++i) {
    const auto t = static_cast<sim::Time>(rng.below(sim::kSecond));
    eng.schedule_at(t, [&fired] { ++fired; });
  }
  eng.run();
  const double dt = wall_seconds() - t0;
  extra["events"] = n;
  extra["trace_hash"] = static_cast<double>(eng.trace_hash() >> 32);
  return fired / dt;
}

/// Rolling schedule/cancel churn: the retransmit-timer pattern. Keeps a
/// window of armed timers, cancels the oldest, and periodically advances
/// virtual time so the queue also pops cancelled entries.
double engine_timer_churn(const BenchOptions&,
                          std::map<std::string, double>& extra) {
  constexpr int n = 1'000'000;
  constexpr int kWindow = 64;
  sim::Engine eng;
  std::vector<sim::Engine::EventId> window;
  window.reserve(kWindow);
  std::size_t oldest = 0;
  int ops = 0;
  const double t0 = wall_seconds();
  for (int i = 0; i < n; ++i) {
    const auto dt = static_cast<sim::Time>((i % 97 + 1) * sim::kMicrosecond);
    auto id = eng.schedule_after(dt, [] {});
    ++ops;
    if (window.size() < kWindow) {
      window.push_back(id);
    } else {
      eng.cancel(window[oldest]);
      ++ops;
      window[oldest] = id;
      oldest = (oldest + 1) % kWindow;
    }
    if (i % 1024 == 1023) {
      eng.run_until(eng.now() + 20 * sim::kMicrosecond);
    }
  }
  for (auto& id : window) eng.cancel(id);
  eng.run();
  const double dt = wall_seconds() - t0;
  extra["ops"] = ops;
  return ops / dt;
}

// ---- transport micro ----

constexpr sim::Tag kData = 7;
constexpr sim::Tag kBye = 8;

sim::WorldConfig transport_world(bool lossy) {
  sim::WorldConfig cfg;
  cfg.host.context_switch = 0;
  cfg.msg.send_overhead = 0;
  cfg.msg.recv_overhead = 0;
  cfg.net.latency = sim::kMillisecond;
  cfg.net.local_latency = 0;
  cfg.net.header_bytes = 0;
  if (lossy) {
    cfg.net.drop_prob = 0.3;
    cfg.net.dup_prob = 0.2;
    cfg.net.max_extra_delay = 5 * sim::kMillisecond;
    cfg.net.fault_tag_lo = kData;
    cfg.net.fault_tag_hi = kData;
  }
  return cfg;
}

/// N reliable application messages sender -> receiver; the sample is
/// application messages per host second (acks and retransmits ride along
/// as part of the cost).
double transport_pump(const BenchOptions&, bool lossy,
                      std::map<std::string, double>& extra) {
  constexpr int count = 20'000;
  lb::TransportConfig tc;
  tc.enabled = true;
  sim::World w(transport_world(lossy));
  auto& h0 = w.add_host();
  auto& h1 = w.add_host();
  sim::Pid rx = w.spawn(h1, "rx", [&](sim::Context& ctx) -> sim::Task<> {
    lb::Transport t(ctx, tc, {kData}, nullptr);
    for (int i = 0; i < count; ++i) co_await ctx.recv(kData);
    co_await ctx.recv(kBye);
  });
  w.spawn(h0, "tx", [&](sim::Context& ctx) -> sim::Task<> {
    lb::Transport t(ctx, tc, {kData}, nullptr);
    for (int i = 0; i < count; ++i) {
      co_await t.send(rx, kData, sim::Bytes(64));
    }
    co_await t.drain();
    co_await ctx.send(rx, kBye, sim::Bytes(0));
  });
  const double t0 = wall_seconds();
  w.run();
  const double dt = wall_seconds() - t0;
  extra["messages"] = count;
  extra["trace_hash"] = static_cast<double>(w.engine().trace_hash() >> 32);
  return count / dt;
}

// ---- serialization micro ----

/// Encode+decode one balancing round's wire traffic (report with FT
/// inventory, instructions with move orders) — the lb/protocol hot path.
double protocol_roundtrip(const BenchOptions&,
                          std::map<std::string, double>& extra) {
  constexpr int iters = 100'000;
  lb::StatusReport rep;
  rep.round = 7;
  rep.units_done = 123.5;
  rep.elapsed_s = 0.5;
  rep.remaining = 99;
  rep.ft = 1;
  rep.inventory.resize(256);
  for (int i = 0; i < 256; ++i) rep.inventory[i] = i;
  lb::Instructions ins;
  ins.round = 8;
  ins.units_until_next = 250;
  for (int i = 0; i < 8; ++i) {
    ins.orders.push_back({i, 10 + i, static_cast<std::uint8_t>(i % 2)});
  }
  std::size_t sink = 0;
  const double t0 = wall_seconds();
  for (int i = 0; i < iters; ++i) {
    auto rb = msg::encode(rep);
    auto ib = msg::encode(ins);
    sink += msg::decode<lb::StatusReport>(rb).inventory.size();
    sink += msg::decode<lb::Instructions>(ib).orders.size();
  }
  const double dt = wall_seconds() - t0;
  extra["roundtrips"] = iters;
  extra["sink"] = static_cast<double>(sink & 0xff);
  return iters / dt;
}

/// Slice gather/scatter: pack half the slices out of one DistArray and
/// unpack them into another — the work-movement payload path.
double slice_pack_unpack(const BenchOptions&,
                         std::map<std::string, double>& extra) {
  constexpr int iters = 1'000;
  constexpr int kSlices = 128;
  constexpr std::size_t kLen = 256;
  std::vector<data::SliceId> half;
  for (int s = 0; s < kSlices / 2; ++s) half.push_back(s);
  const double t0 = wall_seconds();
  for (int i = 0; i < iters; ++i) {
    data::DistArray<double> from(kLen);
    data::DistArray<double> to(kLen);
    for (int s = 0; s < kSlices; ++s) {
      from.add(s, std::vector<double>(kLen, s * 1.0), s);
    }
    to.unpack_and_add(from.pack_and_remove(half));
  }
  const double dt = wall_seconds() - t0;
  extra["slices_per_iter"] = kSlices / 2;
  return iters * (kSlices / 2) / dt;
}

/// SOR's strip loop without the arithmetic, on one rank's 1,000 columns of
/// 2,000 rows. Each sweep starts as a staircase: the lower half one strip
/// ahead, as after columns arrive from the left neighbour. One operation is
/// one strip's data work: the top run at the lowest marker (the columns
/// below the next one, as sor.cpp finds it), then the run's markers move
/// past the strip.
double sor_strip(const BenchOptions&, std::map<std::string, double>& extra) {
  constexpr int kColumns = 1'000;
  constexpr std::size_t kRows = 2'000;
  constexpr int kStrips = 40;  // 50-row strips
  constexpr int kSweeps = 250;
  data::DistArray<double> cols(kRows);
  for (data::SliceId j = 1; j <= kColumns; ++j) {
    cols.add(j, std::vector<double>(kRows));
  }
  double run_columns = 0;
  const double t0 = wall_seconds();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    cols.set_markers_from(cols.lowest_id(), 1);
    cols.set_markers_from(kColumns / 2 + 1, 0);
    for (int strip = 0; strip < kStrips; ++strip) {
      const int p = cols.marker(cols.highest_id());
      const int run = cols.top_below(p + 1);
      cols.set_markers_from(cols.highest_id() - run + 1, p + 1);
      run_columns += run;
    }
  }
  const double dt = wall_seconds() - t0;
  extra["columns"] = kColumns;
  extra["mean_run"] = run_columns / (kSweeps * kStrips);
  return kSweeps * kStrips / dt;
}

// ---- observability overhead ----

/// Flight-recorder tax: one reduced MM run plain, then the identical run
/// with a hub attached. The sample is the wall-time ratio
/// instrumented/plain — bench_compare gates it, so observability can
/// never silently slow the simulator down.
double obs_overhead(const BenchOptions&,
                    std::map<std::string, double>& extra) {
  auto run_once = [](obs::Observability* hub) {
    const exp::Workload mm{apps::App::kMm, 200};
    exp::ExperimentConfig cfg = exp::config(mm, 4);
    cfg.obs = hub;
    const double t0 = wall_seconds();
    const exp::Measurement m = exp::run(mm, cfg);
    return std::make_pair(wall_seconds() - t0, m.dispatched_events);
  };
  // A single reduced run is sub-millisecond; amortize the ratio over
  // several pairs so one scheduler hiccup can't swing the sample.
  constexpr int kPairs = 8;
  obs::Observability hub;
  double plain_dt = 0;
  double obs_dt = 0;
  std::uint64_t plain_events = 0;
  std::uint64_t obs_events = 0;
  for (int i = 0; i < kPairs; ++i) {
    hub.clear();
    const auto [pd, pe] = run_once(nullptr);
    const auto [od, oe] = run_once(&hub);
    plain_dt += pd;
    obs_dt += od;
    plain_events = pe;
    obs_events = oe;
  }
  extra["plain_s"] = plain_dt;
  extra["with_obs_s"] = obs_dt;
  extra["trace_events"] = static_cast<double>(hub.trace.events().size());
  extra["ledger_records"] =
      static_cast<double>(hub.ledger.records().size());
  // Attachment must be pure observation: identical event counts whether
  // or not the hub is on (the determinism tests pin the hashes; this
  // keeps the evidence in the bench report too).
  extra["events_delta"] =
      static_cast<double>(obs_events) - static_cast<double>(plain_events);
  return obs_dt / plain_dt;
}

}  // namespace

Suite default_suite() {
  Suite s;
  s.add({"engine.drain", "events/s", true, engine_drain});
  s.add({"engine.timer_churn", "ops/s", true, engine_timer_churn});
  s.add({"transport.clean", "msgs/s", true,
         [](const BenchOptions& o, std::map<std::string, double>& e) {
           return transport_pump(o, /*lossy=*/false, e);
         }});
  s.add({"transport.lossy", "msgs/s", true,
         [](const BenchOptions& o, std::map<std::string, double>& e) {
           return transport_pump(o, /*lossy=*/true, e);
         }});
  s.add({"msg.protocol_roundtrip", "rounds/s", true, protocol_roundtrip});
  s.add({"data.slice_pack_unpack", "slices/s", true, slice_pack_unpack});
  s.add({"data.column_move", "columns/s", true, column_move});
  s.add({"data.sor_strip", "strips/s", true, sor_strip});
  s.add({"obs.overhead", "x", false, obs_overhead});
  s.add({"obs.trace_append", "events/s", true, trace_append});
  return s;
}

}  // namespace nowlb::perf
