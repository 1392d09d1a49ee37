#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "check/scenario.hpp"
#include "exp/harness.hpp"
#include "lb/cluster.hpp"
#include "load/generators.hpp"
#include "obs/attach.hpp"
#include "obs/causal.hpp"
#include "obs/obs.hpp"
#include "sampler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace nowlb;

// ------------------------------------------------------------------ spans

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::open(const char* name, int parent) {
  spans_.push_back({name, parent, now(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now();
  const double d = s.end_s - s.begin_s;
  // Spans nest, so an untraced log only ever holds the open ones.
  if (!keep_ && id + 1 == static_cast<int>(spans_.size())) spans_.pop_back();
  return d;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"begin_s\": %.9f, \"end_s\": %.9f}\n",
                  i, s.name, s.parent, s.begin_s, s.end_s);
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

// ----------------------------------------------------------- span helpers

/// A span closed when the scope ends (also by an exception), its duration
/// added to `*total` and appended to `*parts` unless they are null.
class Timed {
 public:
  Timed(SpanLog& log, const char* name, int parent, double* total = nullptr,
        std::vector<double>* parts = nullptr)
      : log_(log), id_(log.open(name, parent)), total_(total), parts_(parts) {}
  ~Timed() {
    const double d = log_.close(id_);
    if (total_ != nullptr) *total_ += d;
    if (parts_ != nullptr) parts_->push_back(d);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
  double* total_;
  std::vector<double>* parts_;
};

/// Keeps the sampler's samples for the scope; a no-op on bare units.
class Sampling {
 public:
  explicit Sampling(Sampler* s) : s_(s) {
    if (s_ != nullptr) s_->start();
  }
  ~Sampling() {
    if (s_ != nullptr) s_->stop();
  }
  Sampling(const Sampling&) = delete;
  Sampling& operator=(const Sampling&) = delete;

 private:
  Sampler* s_;
};

// ------------------------------------------------------- recorder counts

double counter(const obs::Observability& hub, const char* name) {
  const obs::Counter* c = hub.metrics.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

/// Per-layer counts of one run, from the program's own recorder: its
/// metrics registry, trace bus and decision ledger, and the virtual-time
/// breakdown of the causal round graph built from them.
void add_recorder_counts(const obs::Observability& hub,
                         std::map<std::string, double>& c) {
  const obs::Gauge* events = hub.metrics.find_gauge("sim_events_dispatched");
  c["sim.events"] += events != nullptr ? events->value() : 0.0;
  c["sim.messages"] += counter(hub, "sim_messages_sent");
  c["sim.payload_mb"] += counter(hub, "sim_payload_bytes") / 1e6;
  c["sim.dropped"] += counter(hub, "sim_messages_dropped");
  c["sim.duplicated"] += counter(hub, "sim_messages_duplicated");
  c["lb.rounds"] += counter(hub, "lb_rounds");
  c["lb.moves_ordered"] += counter(hub, "lb_moves_ordered");
  c["lb.units_moved"] += counter(hub, "lb_units_moved");
  c["lb.cancelled_threshold"] += counter(hub, "lb_cancelled_threshold");
  c["lb.cancelled_profit"] += counter(hub, "lb_cancelled_profit");
  c["lb.evictions"] += counter(hub, "lb_evictions");
  c["lb.transport_sent"] += counter(hub, "transport_sent");
  c["lb.retransmits"] += counter(hub, "transport_retransmits");
  c["lb.acks"] += counter(hub, "transport_acks_sent");
  c["lb.dups_suppressed"] += counter(hub, "transport_dups_suppressed");
  c["lb.gave_up"] += counter(hub, "transport_gave_up");
  c["obs.trace_events"] += static_cast<double>(hub.trace.events().size());
  c["obs.ledger_records"] += static_cast<double>(hub.ledger.records().size());
  const obs::CausalGraph g = obs::build_causal_graph(hub.trace, hub.ledger);
  for (const obs::RoundBreakdown& r : g.rounds) {
    c["virt.compute_s"] += r.compute_s;
    c["virt.blocked_s"] += r.blocked_s;
    c["virt.transport_s"] += r.transport_s;
    c["virt.decision_s"] += r.decision_s;
    c["virt.migration_s"] += r.migration_s;
  }
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

// ---------------------------------------------------------- figure points

enum class Figure { kSor, kMm };

struct Point {
  int slaves = 0;
  int load_rank = 0;
  sim::Time period = 0;  // 0: constant load (Fig. 8); else Fig. 9's
  sim::Time delay = 0;   // oscillation, busy for half of each period

  sim::ProcessBody make_load() const {
    return period == 0 ? load::constant()
                       : load::oscillating(period, period / 2, delay);
  }
};

/// What the harness must reproduce bit for bit, and every later run of
/// the same point too.
struct PointPrint {
  bool valid = false;
  double elapsed_s = 0;
  double efficiency = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;

  bool operator==(const PointPrint&) const = default;
};

PointPrint print_of(const exp::Measurement& m) {
  return {true, m.elapsed_s, m.efficiency, m.trace_hash,
          m.dispatched_events};
}

/// exp/harness.cpp's finish(), term for term:
/// efficiency = T_seq / sum_p (elapsed - competing CPU on p's host).
exp::Measurement measure(double seq_s, int slaves, sim::World& w,
                         const lb::Cluster& cluster) {
  exp::Measurement m;
  m.elapsed_s = sim::to_seconds(w.now());
  m.seq_s = seq_s;
  m.speedup = seq_s / m.elapsed_s;
  m.trace_hash = w.engine().trace_hash();
  m.dispatched_events = w.engine().dispatched_events();
  if (cluster.has_master()) m.stats = cluster.stats();
  double denominator = 0;
  for (int r = 0; r < slaves; ++r) {
    double competing = 0;
    for (sim::Pid load_pid : cluster.loads(r)) {
      competing += sim::to_seconds(w.cpu_used(load_pid));
    }
    m.competing_cpu_s += competing;
    denominator += m.elapsed_s - competing;
  }
  if (denominator <= 0) throw std::runtime_error("no available CPU time");
  m.efficiency = seq_s / denominator;
  return m;
}

std::string check_sor(const apps::SorConfig& cfg, int slaves,
                      const apps::SorShared& s) {
  const auto n = static_cast<std::size_t>(cfg.n);
  if (s.final_owner.size() != n) return "final_owner has the wrong size";
  if (s.final_owner.front() != -1 || s.final_owner.back() != -1) {
    return "a boundary column has an owner";
  }
  int previous = 0;
  for (std::size_t j = 1; j + 1 < n; ++j) {
    const int owner = s.final_owner[j];
    if (owner < 0 || owner >= slaves) {
      return "column " + std::to_string(j) + " has no final owner";
    }
    if (owner < previous) {
      return "final owners decrease at column " + std::to_string(j);
    }
    previous = owner;
  }
  const double units =
      std::accumulate(s.units_by_rank.begin(), s.units_by_rank.end(), 0.0);
  // Ranks add fractional units per strip, so the sum carries rounding
  // error, far below the 1/(n-2) unit of one lost or repeated row.
  const double expected = static_cast<double>(cfg.n - 2) * cfg.sweeps;
  if (std::abs(units - expected) > 1e-6) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "units_by_rank sums to %.9f, expected %.0f",
                  units, expected);
    return msg;
  }
  return "";
}

std::string check_mm(const apps::MmConfig& cfg, const apps::MmShared& s,
                     const obs::Observability& hub, int rounds) {
  if (s.compute_count_per_column.size() != static_cast<std::size_t>(cfg.n)) {
    return "compute_count_per_column has the wrong size";
  }
  for (std::size_t j = 0; j < s.compute_count_per_column.size(); ++j) {
    if (s.compute_count_per_column[j] != cfg.repeats) {
      return "column " + std::to_string(j) + " computed " +
             std::to_string(s.compute_count_per_column[j]) + " times";
    }
  }
  if (hub.ledger.records().size() != static_cast<std::size_t>(rounds)) {
    return "ledger holds " + std::to_string(hub.ledger.records().size()) +
           " records for " + std::to_string(rounds) + " rounds";
  }
  return "";
}

class FigureWorkload final : public Workload {
 public:
  FigureWorkload(Figure fig, std::vector<Point> points)
      : fig_(fig),
        points_(std::move(points)),
        slices_(fig == Figure::kSor ? kSorSlices : 1),
        first_(points_.size()) {
    // Cost-only kernels at paper size (the apps' defaults).
    mm_.repeats = kMmRepeats;
  }

  UnitResult warm_up(SpanLog&) override {
    UnitResult u;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point pt = points_[i];
      ++u.attempted;
      exp::ExperimentConfig cfg;
      cfg.slaves = pt.slaves;
      cfg.world = exp::paper_world();
      cfg.lb = exp::paper_lb();
      cfg.want_trace = fig_ == Figure::kMm;
      cfg.loads.push_back({pt.load_rank, [pt] { return pt.make_load(); }});
      try {
        first_[i] = print_of(fig_ == Figure::kSor ? exp::run_sor(sor_, cfg)
                                                  : exp::run_mm(mm_, cfg));
      } catch (const std::exception& e) {
        ++u.failed;
        std::cout << "FAIL harness " << label(pt) << ": " << e.what() << '\n';
      }
    }
    return u;
  }

  UnitResult run_unit(SpanLog& spans, Sampler* sampler) override {
    UnitResult u;
    Timed unit(spans, "unit", -1);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      run_point(i, spans, unit.id(), sampler, u);
    }
    u.setup_s = u.inputs_s + u.cluster_s;
    return u;
  }

  void print_fingerprint(std::ostream& out) const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t events = 0;
    char line[192];
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const PointPrint& p = first_[i];
      h = combine(combine(h, p.trace_hash), p.events);
      events += p.events;
      std::snprintf(line, sizeof line,
                    "  %-34s elapsed=%.6fs eff=%.4f events=%llu "
                    "trace=0x%016llx\n",
                    label(points_[i]).c_str(), p.elapsed_s, p.efficiency,
                    static_cast<unsigned long long>(p.events),
                    static_cast<unsigned long long>(p.trace_hash));
      out << line;
    }
    std::snprintf(line, sizeof line,
                  "fingerprint: points=%zu events=%llu trace=0x%016llx\n",
                  points_.size(), static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(h));
    out << line;
  }

 private:
  // Fig. 9's run length (bench/fig9_oscillating): three phases, 100-490 s
  // of virtual time at 8-2 slaves, so even the 80 s period cycles.
  static constexpr int kMmRepeats = 3;
  // A SOR point takes 0.6-2.5 s of host time, too long to ever run at the
  // host's full speed on a shared VM (main.cpp: host_s takes each run item
  // at its fastest). So it runs in this many equal stretches of virtual
  // time, 3-13 ms each, one World::run_until call apiece; an MM point
  // (about 12 ms) runs in one.
  static constexpr int kSorSlices = 200;

  static std::string label(const Point& pt) {
    std::string s = "slaves=" + std::to_string(pt.slaves) +
                    " load@" + std::to_string(pt.load_rank);
    if (pt.period != 0) {
      s += " period=" + std::to_string(pt.period / sim::kSecond) + "s";
    }
    return s + " delay=" + std::to_string(pt.delay / sim::kMillisecond) +
           "ms";
  }

  double seq_time_s() const {
    return fig_ == Figure::kSor ? apps::sor_seq_time_s(sor_)
                                : apps::mm_seq_time_s(mm_);
  }

  double planned_units() const {
    return fig_ == Figure::kSor
               ? static_cast<double>(sor_.n - 2) * sor_.sweeps
               : static_cast<double>(mm_.n) * mm_.repeats;
  }

  void run_point(std::size_t i, SpanLog& spans, int unit, Sampler* sampler,
                 UnitResult& u) {
    const Point& pt = points_[i];
    ++u.attempted;
    const double setup_before = u.inputs_s + u.cluster_s;
    const std::size_t run_before = u.run_parts.size();
    Timed point(spans, "point", unit);
    std::string error;
    try {
      // Set-up in exp/harness.cpp's order: the recorder is attached before
      // the cluster spawns the master and slaves, and loads come last. MM
      // always carries the recorder (Fig. 9 is plotted from it); SOR gets
      // one only in a traced unit.
      std::unique_ptr<obs::Observability> hub;
      std::unique_ptr<sim::World> world;
      std::unique_ptr<lb::Cluster> cluster;
      {
        Timed t(spans, "lb.cluster", point.id(), &u.cluster_s);
        lb::ClusterConfig cc =
            fig_ == Figure::kSor
                ? apps::sor_cluster_config(sor_, pt.slaves, exp::paper_lb())
                : apps::mm_cluster_config(mm_, pt.slaves, exp::paper_lb());
        if (fig_ == Figure::kMm || sampler != nullptr) {
          hub = std::make_unique<obs::Observability>();
        }
        world = std::make_unique<sim::World>(exp::paper_world());
        obs::attach(*world, hub.get());
        cluster = std::make_unique<lb::Cluster>(*world, std::move(cc));
      }
      std::shared_ptr<apps::SorShared> sor;
      std::shared_ptr<apps::MmShared> mm;
      {
        Timed t(spans, "apps.inputs", point.id(), &u.inputs_s);
        if (fig_ == Figure::kSor) {
          sor = std::make_shared<apps::SorShared>();
          apps::sor_make_inputs(sor_, *sor);
        } else {
          mm = std::make_shared<apps::MmShared>();
          apps::mm_make_inputs(mm_, *mm);
        }
      }
      {
        Timed t(spans, "lb.cluster", point.id(), &u.cluster_s);
        if (fig_ == Figure::kSor) {
          apps::sor_build(*cluster, sor_, sor);
        } else {
          apps::mm_build(*cluster, mm_, mm);
        }
        cluster->add_load(pt.load_rank, pt.make_load());
      }
      {
        // The slices end before the warm-up's completion time, so the
        // application finishes in the last call, World::run, as it does in
        // the harness. A run that finishes early differs from the warm-up
        // (checked below) and must not be resumed: its loads run forever.
        Sampling on(sampler);
        const double end_s = first_[i].valid ? first_[i].elapsed_s : 0;
        for (int k = 1; k < slices_ && end_s > 0 &&
                        world->essential_remaining() > 0;
             ++k) {
          Timed t(spans, "sim.run_until", point.id(), &u.run_s, &u.run_parts);
          world->run_until(sim::from_seconds(end_s * k / slices_));
        }
        if (world->essential_remaining() > 0) {
          Timed t(spans, "sim.run", point.id(), &u.run_s, &u.run_parts);
          world->run();
        }
      }
      {
        Timed t(spans, "check.verify", point.id(), &u.verify_s);
        const exp::Measurement m =
            measure(seq_time_s(), pt.slaves, *world, *cluster);
        if (world->essential_remaining() != 0) {
          error = "essential processes left at the end of the run";
        } else if (fig_ == Figure::kSor) {
          error = check_sor(sor_, pt.slaves, *sor);
        } else {
          error = check_mm(mm_, *mm, *hub, m.stats.rounds);
        }
        const PointPrint p = print_of(m);
        if (!first_[i].valid) {
          first_[i] = p;  // the harness failed on this point
        } else if (error.empty() && !(p == first_[i])) {
          error = "differs from exp::run_* on this point";
        }
        u.virtual_s += m.elapsed_s;
        u.efficiency.push_back(m.efficiency);
      }
      if (sampler != nullptr) {
        add_recorder_counts(*hub, u.counts);
        u.counts["apps.units"] += planned_units();
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty()) {
      ++u.failed;
      std::cout << "FAIL " << label(pt) << ": " << error << '\n';
    }
    // One set-up item and slices_ run items per point, whatever failed.
    u.setup_parts.push_back(u.inputs_s + u.cluster_s - setup_before);
    u.run_parts.resize(run_before + static_cast<std::size_t>(slices_));
  }

  Figure fig_;
  std::vector<Point> points_;
  int slices_;  // World::run_until / World::run calls per point
  /// The harness's run of each point, from the warm-up.
  std::vector<PointPrint> first_;
  apps::SorConfig sor_;
  apps::MmConfig mm_;
};

// Fig. 8's dynamic-balancing column, the load on rank 0 at 2-7 slaves,
// plus one held-out point: the seed draws 5 or 6 slaves and an interior
// loaded rank; the paper seed repeats 7 slaves with the load on rank 0.
//
// The freedom is kept small on purpose. The loaded rank moves a point's
// host cost between 0.55 and 2.83 s and its efficiency between 0.33 and
// 0.91; at interior ranks of 5-6 slaves both stay within about 0.2 s and
// 0.06 and never go below the 7-slave paper point, so held-out seeds test
// other placements without moving the end-to-end medians. And no seed
// perturbs SOR's timing (load start, unit costs): some such perturbations
// deadlock the pipeline (README.md, known failures), while every loaded
// rank at the paper's costs completes.
std::vector<Point> sor_points(std::uint64_t seed) {
  std::vector<Point> v;
  for (int p = 2; p <= 7; ++p) v.push_back({p, 0});
  Point held_out{7, 0};
  if (seed != kPaperSeed) {
    Rng rng(seed);
    held_out.slaves = 5 + static_cast<int>(rng.below(2));
    held_out.load_rank =
        1 + static_cast<int>(
                rng.below(static_cast<std::uint64_t>(held_out.slaves - 2)));
  }
  v.push_back(held_out);
  return v;
}

std::vector<Point> mm_points(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> v;
  for (int p = 2; p <= 8; ++p) {
    for (const sim::Time period :
         {5 * sim::kSecond, 20 * sim::kSecond, 80 * sim::kSecond}) {
      Point pt;
      pt.slaves = p;
      pt.period = period;
      if (seed != kPaperSeed) {
        pt.load_rank = static_cast<int>(rng.below(p));
        const auto period_ms =
            static_cast<std::uint64_t>(period / sim::kMillisecond);
        pt.delay =
            static_cast<sim::Time>(rng.below(period_ms)) * sim::kMillisecond;
      }
      v.push_back(pt);
    }
  }
  return v;
}

// -------------------------------------------------------- fuzz scenarios

constexpr check::App kFuzzApps[] = {check::App::kMm, check::App::kSor,
                                    check::App::kLu};

/// Work units a scenario's app computes: MM column products per repeat,
/// SOR interior column sweeps, LU column-step updates.
double planned_units(const check::Scenario& sc) {
  switch (sc.app) {
    case check::App::kMm:
      return static_cast<double>(sc.mm.n) * sc.mm.repeats;
    case check::App::kSor:
      return static_cast<double>(sc.sor.n - 2) * sc.sor.sweeps;
    case check::App::kLu:
      return static_cast<double>(sc.lu.n) * (sc.lu.n - 1) / 2;
  }
  return 0;
}

double seq_time_s(const check::Scenario& sc) {
  switch (sc.app) {
    case check::App::kMm:
      return apps::mm_seq_time_s(sc.mm);
    case check::App::kSor:
      return apps::sor_seq_time_s(sc.sor);
    case check::App::kLu:
      return apps::lu_seq_time_s(sc.lu);
  }
  return 0;
}

// Fuzz seeds 1..kPool of every app were run under the plan below, bare and
// with the recorder attached; these failed, and are open bugs rather than
// inputs (README.md, known failures). Every other seed of the pool passes.
constexpr std::uint64_t kPool = 10000;
constexpr std::pair<check::App, std::uint64_t> kKnownFailures[] = {
    {check::App::kMm, 3088},
    {check::App::kMm, 5582},
    {check::App::kLu, 7039},
    {check::App::kLu, 9811},
};

/// The fuzz seeds one app runs: 1..n at the paper seed; otherwise n
/// distinct seeds drawn from the pool, in ascending order.
std::vector<std::uint64_t> fuzz_seeds(check::App app, std::uint64_t seed,
                                      std::size_t n) {
  std::vector<std::uint64_t> pool;
  for (std::uint64_t s = 1; s <= kPool; ++s) {
    bool known = false;
    for (const auto& [a, bad] : kKnownFailures) known |= a == app && bad == s;
    if (!known) pool.push_back(s);
  }
  if (seed == kPaperSeed) {
    pool.resize(n);
    return pool;
  }
  Rng rng(seed * std::size(kFuzzApps) + static_cast<std::uint64_t>(app));
  for (std::size_t i = 0; i < n; ++i) {  // partial Fisher-Yates
    std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
  }
  pool.resize(n);
  std::sort(pool.begin(), pool.end());
  return pool;
}

class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(std::uint64_t seed) {
    for (check::App app : kFuzzApps) {
      seeds_.push_back(fuzz_seeds(app, seed, kPerApp));
    }
    // The CI fault campaign's plan (src/check/CMakeLists.txt: fuzz_faults
    // and fuzz_crash); apply_fault_plan keeps the crash for MM only.
    plan_.drop_rate = 0.05;
    plan_.dup_rate = 0.02;
    plan_.reorder_delay = 500 * sim::kMicrosecond;
    plan_.kill_rank = 1;
    plan_.kill_round = 3;
  }

  UnitResult warm_up(SpanLog& spans) override {
    return run_unit(spans, nullptr);
  }

  UnitResult run_unit(SpanLog& spans, Sampler* sampler) override {
    UnitResult u;
    Timed unit(spans, "unit", -1);
    const bool record = first_.empty();  // the warm-up
    if (record) first_.resize(std::size(kFuzzApps) * kPerApp);
    double eff_sum = 0;
    int eff_n = 0;
    std::vector<check::Scenario> chunk;
    std::size_t index = 0;  // of the next scenario in the batch
    for (std::size_t a = 0; a < std::size(kFuzzApps); ++a) {
      for (std::size_t c = 0; c < kPerApp; c += kChunk) {
        // Scenarios are generated a chunk at a time, just before they run,
        // so set-up is timed across the whole unit like the runs are: the
        // whole batch takes only about 1.3 ms to generate.
        {
          Timed t(spans, "check.generate", unit.id(), &u.generate_s,
                  &u.setup_parts);
          chunk.clear();
          for (std::size_t j = c; j < std::min(c + kChunk, kPerApp); ++j) {
            chunk.push_back(
                check::generate_scenario(seeds_[a][j], kFuzzApps[a]));
            check::apply_fault_plan(chunk.back(), plan_);
          }
        }
        for (const check::Scenario& sc : chunk) {
          const std::size_t k = index++;
          ++u.attempted;
          Timed scenario(spans, "scenario", unit.id());
          std::unique_ptr<obs::Observability> hub;
          if (sampler != nullptr) {
            hub = std::make_unique<obs::Observability>();
          }
          std::string error;
          try {
            check::FuzzResult r;
            {
              Timed t(spans, "check.run_scenario", scenario.id(), &u.run_s,
                      &u.run_parts);
              Sampling on(sampler);
              r = check::run_scenario(sc, check::InvariantSet::Fault::kNone,
                                      hub.get());
            }
            Timed t(spans, "check.verify", scenario.id(), &u.verify_s);
            if (!r.ok) {
              error = r.failures.empty() ? "failed"
                                         : r.failures.front().checker + ": " +
                                               r.failures.front().message;
            }
            const std::pair<std::uint64_t, double> p{r.trace_hash,
                                                     r.elapsed_s};
            if (record) {
              first_[k] = p;
            } else if (error.empty() && p != first_[k]) {
              error = "the schedule differs from this scenario's warm-up run";
            }
            u.virtual_s += r.elapsed_s;
            bool unloaded = true;
            for (int l : sc.loads) unloaded = unloaded && l == 0;
            if (unloaded) {
              // No competing CPU, so the paper's denominator is slaves x T.
              eff_sum += seq_time_s(sc) / (sc.slaves * r.elapsed_s);
              ++eff_n;
            }
          } catch (const std::exception& e) {
            error = e.what();
          }
          if (hub != nullptr) {
            add_recorder_counts(*hub, u.counts);
            u.counts["apps.units"] += planned_units(sc);
          }
          if (!error.empty()) {
            ++u.failed;
            std::cout << "FAIL " << sc.describe() << ": " << error << '\n';
          }
        }
      }
    }
    u.setup_s = u.generate_s;
    if (eff_n > 0) u.efficiency.push_back(eff_sum / eff_n);
    u.counts["check.scenarios"] += static_cast<double>(index);
    u.counts["check.failures"] += u.failed;
    return u;
  }

  void print_fingerprint(std::ostream& out) const override {
    char line[192];
    for (std::size_t a = 0; a < std::size(kFuzzApps); ++a) {
      std::uint64_t h = 0xcbf29ce484222325ull;
      double virtual_s = 0;
      for (std::size_t k = a * kPerApp; k < (a + 1) * kPerApp; ++k) {
        h = combine(h, first_[k].first);
        virtual_s += first_[k].second;
      }
      std::snprintf(line, sizeof line,
                    "  %-4s %zu seeds in %llu..%llu: virtual=%.6fs "
                    "trace=0x%016llx\n",
                    check::app_name(kFuzzApps[a]), seeds_[a].size(),
                    static_cast<unsigned long long>(seeds_[a].front()),
                    static_cast<unsigned long long>(seeds_[a].back()),
                    virtual_s, static_cast<unsigned long long>(h));
      out << line;
    }
  }

 private:
  static constexpr std::size_t kPerApp = 2000;
  static constexpr std::size_t kChunk = 100;

  std::vector<std::vector<std::uint64_t>> seeds_;  // per app, kFuzzApps order
  check::FaultPlan plan_;
  /// (trace hash, virtual seconds) of each scenario's warm-up run.
  std::vector<std::pair<std::uint64_t, double>> first_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sor_loaded") {
    return std::make_unique<FigureWorkload>(Figure::kSor, sor_points(seed));
  }
  if (name == "mm_oscillating") {
    return std::make_unique<FigureWorkload>(Figure::kMm, mm_points(seed));
  }
  if (name == "fuzz_faults") return std::make_unique<FuzzWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
