// perfbench: one workload of the end-to-end benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Runs one untimed warm-up pass (figure points through the experiment
// harness), then the workload's closed loop for --seconds, checks every
// operation's output against its own checks and the warm-up, and prints
// the fingerprint, then one JSON object as the last line of stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run alternates bare and traced units (recorder attached,
// sampler on) and writes its spans to --spans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "data/dist_array.hpp"
#include "msg/serialize.hpp"
#include "sampler.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// A traced run's layer split rests on at least this many samples, and is
// not correct on fewer than kFloorSamples or below kFloorCoverage.
constexpr std::uint64_t kMinSamples = 1200;
constexpr std::uint64_t kFloorSamples = 1000;
constexpr double kFloorCoverage = 0.9;
// host_s and setup_s take each item's fastest run over at least this many
// timed units.
constexpr std::size_t kMinUnits = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        o.trace = value == "1";
      } else if (key == "--spans") {
        o.spans_path = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seconds) return std::nullopt;
  return o;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// The process's peak resident set in MiB. VmHWM starts afresh at exec,
// whereas ru_maxrss keeps the peak of the process that forked this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

// One unit's host time at the host's full speed: the sum over its short
// items (UnitResult::run_parts or setup_parts) of each item's fastest run
// in any unit. On a shared VM the program runs up to twice as slow for
// stretches of a few to a few hundred milliseconds, and how much of a run
// is slow drifts from minute to minute, so a median of whole units
// follows the host, while an item of 0.4-40 ms that repeats in every unit
// is almost always fast at least once per run.
double fastest(const std::vector<UnitResult>& units,
               std::vector<double> UnitResult::*parts) {
  std::vector<double> best = units.front().*parts;
  for (const UnitResult& u : units) {
    const std::vector<double>& v = u.*parts;
    for (std::size_t j = 0; j < best.size() && j < v.size(); ++j) {
      best[j] = std::min(best[j], v[j]);
    }
  }
  double sum = 0;
  for (double b : best) sum += b;
  return sum;
}

// ------------------------------------------------ sampler known answers

// Each probe calls one layer only, so the sampler must put (nearly) all of
// its samples there. The msg probe's time is memcpy and zero-fill inside
// libc: it proves those frames are walked out to their msg caller. The CPU
// clock is a system call, so it is read only every few milliseconds.
constexpr double kProbeCpuS = 1.5;
volatile double g_probe_sink = 0;

LayerSplit probe_data(Sampler& sampler) {
  // Ordered-map marker lookups, as SOR's strip loop makes. The call goes
  // through a volatile pointer so marker() is not inlined into this loop:
  // every instruction of a lookup then belongs to data.
  using Columns = nowlb::data::DistArray<double>;
  int (Columns::*volatile marker)(nowlb::data::SliceId) const =
      &Columns::marker;
  constexpr int kColumns = 1 << 16;
  Columns columns(1);
  for (int id = 0; id < kColumns; ++id) columns.add(id, {0.0}, id);
  long sum = 0;
  sampler.arm();
  sampler.start();
  const double t0 = cpu_s();
  while (cpu_s() - t0 < kProbeCpuS) {
    for (int id = 0; id < kColumns; ++id) sum += (columns.*marker)(id);
  }
  sampler.stop();
  sampler.disarm();
  g_probe_sink = static_cast<double>(sum);
  return sampler.take();
}

LayerSplit probe_msg(Sampler& sampler) {
  // Four SOR columns' worth per vector (64 KB), so the copies dwarf the
  // allocator calls that free them here, outside msg.
  const std::vector<double> column(8000, 1.0);
  const nowlb::msg::Bytes raw(column.size() * sizeof(double));
  double sum = 0;
  sampler.arm();
  sampler.start();
  const double t0 = cpu_s();
  while (cpu_s() - t0 < kProbeCpuS) {
    for (int k = 0; k < 1024; ++k) {
      nowlb::msg::Writer w;
      w.put_vec(column);
      w.put_bytes(raw);
      const nowlb::msg::Bytes payload = w.take();
      nowlb::msg::Reader r(payload);
      const std::vector<double> back = r.get_vec<double>();
      const nowlb::msg::Bytes bytes = r.get_bytes();
      sum += back[static_cast<std::size_t>(k) % back.size()] +
             static_cast<double>(bytes.size());
    }
  }
  sampler.stop();
  sampler.disarm();
  g_probe_sink = sum;
  return sampler.take();
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string split_line(const char* what, const LayerSplit& s) {
  std::string out = what;
  char cell[48];
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    if (s.samples[l] == 0) continue;
    std::snprintf(cell, sizeof cell, " %s=%.1f%%",
                  std::string(kLayers[l]).c_str(),
                  100.0 * s.share(static_cast<int>(l)));
    out += cell;
  }
  std::snprintf(cell, sizeof cell, " (samples=%llu)",
                static_cast<unsigned long long>(s.total()));
  return out + cell;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char cell[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(cell, sizeof cell,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += cell;
  }
  std::cout << out << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: perfbench --workload <sor_loaded|mm_oscillating|"
                 "fuzz_faults> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt->workload, opt->seed);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt->workload << "'\n";
    return 2;
  }
  // Crash scenarios log heartbeat evictions at Warn; keep them off stdout.
  nowlb::Log::set_level(nowlb::LogLevel::Error);

  std::optional<Sampler> sampler;
  if (opt->trace) sampler.emplace();
  SpanLog spans(opt->trace);

  const double t_start = wall_s();
  const double t_end = t_start + opt->seconds;
  const double t_cap = t_end + opt->seconds;
  const UnitResult warm = workload->warm_up(spans);
  // The peak of one pass over every point or scenario. Later passes only
  // add allocator noise: SOR's peak lands at 105 or 112 MB depending on
  // how many have run.
  const double peak_mb = peak_rss_mb();
  char line[160];
  std::snprintf(line, sizeof line, "warm-up (untimed): %.3fs failed=%d/%d\n",
                wall_s() - t_start, warm.failed, warm.attempted);
  std::cout << line << std::flush;

  // The closed loop, until the next unit would end past --seconds (the
  // warm-up counts), but over at least kMinUnits timed units. A traced run
  // alternates bare and traced units, starting bare, and goes on for at
  // most --seconds more until the sampler holds kMinSamples (the tick
  // gives ~250 per second).
  std::vector<UnitResult> bare;
  std::vector<UnitResult> traced;
  double unit_s = 0;  // wall time of the last unit
  auto more = [&] {
    const double now = wall_s();
    if (now + unit_s <= t_end) return true;
    if (!opt->trace) return bare.size() < kMinUnits;
    return traced.empty() || (sampler->kept() < kMinSamples && now < t_cap);
  };
  do {
    const bool trace_unit = opt->trace && traced.size() < bare.size();
    const double t0 = wall_s();
    if (trace_unit) sampler->arm();
    UnitResult u = workload->run_unit(spans, trace_unit ? &*sampler : nullptr);
    if (trace_unit) sampler->disarm();
    unit_s = wall_s() - t0;
    std::snprintf(line, sizeof line,
                  "unit %zu%s: run=%.4fs setup=%.4fs verify=%.4fs "
                  "virtual=%.3fs failed=%d/%d\n",
                  bare.size() + traced.size(), trace_unit ? " (traced)" : "",
                  u.run_s, u.setup_s, u.verify_s, u.virtual_s, u.failed,
                  u.attempted);
    std::cout << line << std::flush;
    (trace_unit ? traced : bare).push_back(std::move(u));
  } while (more());

  long attempted = warm.attempted;
  long failed = warm.failed;
  for (const auto* set : {&bare, &traced}) {
    for (const UnitResult& u : *set) {
      attempted += u.attempted;
      failed += u.failed;
    }
  }
  std::cout << "workload " << opt->workload << " seed=" << opt->seed << '\n';
  workload->print_fingerprint(std::cout);

  const UnitResult& first = bare.front();
  std::vector<Metric> metrics;
  bool correct = failed == 0;
  if (!opt->trace) {
    const std::vector<double>& eff = first.efficiency;
    double eff_mean = 0;
    for (double e : eff) eff_mean += e / static_cast<double>(eff.size());
    metrics = {
        {"host_s", fastest(bare, &UnitResult::run_parts), "s"},
        {"setup_s", fastest(bare, &UnitResult::setup_parts), "s"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"virtual_s", first.virtual_s, "s"},
        {"efficiency.mean", eff_mean, "ratio"},
        {"efficiency.min",
         eff.empty() ? 0.0 : *std::min_element(eff.begin(), eff.end()),
         "ratio"},
        {"pass_ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    std::cout << "units=" << bare.size() << " (host_s and setup_s sum each "
              << "item's fastest run over them)\n";
  } else {
    const LayerSplit split = sampler->take();
    const LayerSplit data_probe = probe_data(*sampler);
    const LayerSplit msg_probe = probe_msg(*sampler);
    const int kData = layer_index("data");
    const int kMsg = layer_index("msg");
    std::cout << split_line("split:", split) << '\n'
              << split_line("probe data:", data_probe) << '\n'
              << split_line("probe msg:", msg_probe) << '\n';
    if (data_probe.share(kData) < 0.9 || msg_probe.share(kMsg) < 0.9) {
      std::cout << "FAIL sampler known-answer probes below 90 %\n";
      correct = false;
    }
    if (split.total() < kFloorSamples || split.coverage() < kFloorCoverage) {
      std::cout << "FAIL the split has " << split.total()
                << " samples at coverage " << split.coverage() << '\n';
      correct = false;
    }
    if (sampler->dropped() > 0) {
      std::cout << "FAIL sampler dropped " << sampler->dropped()
                << " samples\n";
      correct = false;
    }

    // Everything per traced unit, so runs of any length compare.
    const double n = static_cast<double>(traced.size());
    auto per_unit = [&](auto field) {
      double s = 0;
      for (const UnitResult& u : traced) s += field(u);
      return s / n;
    };
    std::map<std::string, double> c;
    for (const UnitResult& u : traced) {
      for (const auto& [k, v] : u.counts) c[k] += v / n;
    }
    const double run_s = per_unit([](auto& u) { return u.run_s; });
    auto self_s = [&](const char* layer) {
      return split.share(layer_index(layer)) * run_s;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    metrics = {
        {"data.self_s", self_s("data"), "s"},
        {"data.us_per_unit", 1e6 * ratio(self_s("data"), c["apps.units"]),
         "us"},
        {"msg.self_s", self_s("msg"), "s"},
        {"msg.ns_per_kb",
         1e9 * ratio(self_s("msg"), 1e3 * c["sim.payload_mb"]), "ns"},
        {"sim.payload_mb", c["sim.payload_mb"], "MB"},
        {"sim.self_s", self_s("sim"), "s"},
        {"sim.events", c["sim.events"], "count"},
        {"sim.ns_per_event", 1e9 * ratio(self_s("sim"), c["sim.events"]),
         "ns"},
        {"sim.messages", c["sim.messages"], "count"},
        {"lb.self_s", self_s("lb"), "s"},
        {"lb.rounds", c["lb.rounds"], "count"},
        {"lb.us_per_round", 1e6 * ratio(self_s("lb"), c["lb.rounds"]), "us"},
        {"lb.transport_sent", c["lb.transport_sent"], "count"},
        {"lb.retransmits", c["lb.retransmits"], "count"},
        {"lb.retransmit_ratio",
         ratio(c["lb.retransmits"], c["lb.transport_sent"]), "ratio"},
        {"lb.acks", c["lb.acks"], "count"},
        {"lb.dups_suppressed", c["lb.dups_suppressed"], "count"},
        {"lb.gave_up", c["lb.gave_up"], "count"},
        {"lb.evictions", c["lb.evictions"], "count"},
        {"sim.dropped", c["sim.dropped"], "count"},
        {"sim.duplicated", c["sim.duplicated"], "count"},
        {"lb.units_moved", c["lb.units_moved"], "count"},
        {"lb.moves_ordered", c["lb.moves_ordered"], "count"},
        {"lb.move_round_ratio", ratio(c["lb.moves_ordered"], c["lb.rounds"]),
         "ratio"},
        {"lb.cancelled_threshold", c["lb.cancelled_threshold"], "count"},
        {"lb.cancelled_profit", c["lb.cancelled_profit"], "count"},
        {"virt.compute_s", c["virt.compute_s"], "s"},
        {"virt.blocked_s", c["virt.blocked_s"], "s"},
        {"virt.transport_s", c["virt.transport_s"], "s"},
        {"virt.decision_s", c["virt.decision_s"], "s"},
        {"virt.migration_s", c["virt.migration_s"], "s"},
        {"apps.self_s", self_s("apps"), "s"},
        {"apps.units", c["apps.units"], "count"},
        {"obs.self_s", self_s("obs"), "s"},
        {"obs.trace_events", c["obs.trace_events"], "count"},
        {"obs.ledger_records", c["obs.ledger_records"], "count"},
        {"check.self_s", self_s("check"), "s"},
        {"check.scenarios", c["check.scenarios"], "count"},
        {"check.failures", c["check.failures"], "count"},
        {"apps.inputs_s", per_unit([](auto& u) { return u.inputs_s; }), "s"},
        {"lb.cluster_s", per_unit([](auto& u) { return u.cluster_s; }), "s"},
        {"check.generate_s", per_unit([](auto& u) { return u.generate_s; }),
         "s"},
        {"sim.run_s", run_s, "s"},
        {"check.verify_s", per_unit([](auto& u) { return u.verify_s; }),
         "s"},
        {"load.self_s", self_s("load"), "s"},
        {"loop.self_s", self_s("loop"), "s"},
        {"util.self_s", self_s("util"), "s"},
        {"other.self_s", self_s("other"), "s"},
        {"profile.samples", static_cast<double>(split.total()), "count"},
        {"profile.coverage", split.coverage(), "ratio"},
        {"trace.overhead",
         ratio(fastest(traced, &UnitResult::run_parts),
               fastest(bare, &UnitResult::run_parts)),
         "ratio"},
        {"probe.data.share", data_probe.share(kData), "ratio"},
        {"probe.data.samples", static_cast<double>(data_probe.total()),
         "count"},
        {"probe.msg.share", msg_probe.share(kMsg), "ratio"},
        {"probe.msg.samples", static_cast<double>(msg_probe.total()),
         "count"},
    };
    std::cout << "traced units=" << traced.size()
              << ", bare units=" << bare.size()
              << " (per-layer values are per traced unit)\n";
    if (!opt->spans_path.empty()) {
      if (spans.write_jsonl(opt->spans_path)) {
        std::cout << "spans: wrote " << spans.size() << " to "
                  << opt->spans_path << '\n';
      } else {
        std::cout << "FAIL could not write spans to " << opt->spans_path
                  << '\n';
        correct = false;
      }
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
