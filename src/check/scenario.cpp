#include "check/scenario.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "check/checkers.hpp"
#include "data/ownership.hpp"
#include "lb/cluster.hpp"
#include "load/generators.hpp"
#include "obs/attach.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace nowlb::check {

using sim::Time;
using sim::to_seconds;

std::string Scenario::describe() const {
  std::string s = std::string(app_name(app)) + " seed=" +
                  std::to_string(seed) + " slaves=" + std::to_string(slaves);
  switch (app) {
    case App::kMm:
      s += " n=" + std::to_string(mm.n) + " repeats=" +
           std::to_string(mm.repeats);
      break;
    case App::kSor:
      s += " n=" + std::to_string(sor.n) + " sweeps=" +
           std::to_string(sor.sweeps);
      break;
    case App::kLu:
      s += " n=" + std::to_string(lu.n);
      break;
  }
  s += " pipelined=" + std::to_string(lb.pipelined ? 1 : 0) +
       " period_ms=" + std::to_string(lb.min_period / sim::kMillisecond) +
       " latency_us=" + std::to_string(world.net.latency / sim::kMicrosecond);
  s += " loads=";
  for (int k : loads) s += std::to_string(k);
  if (faults.any()) {
    s += " faults[drop=" + std::to_string(faults.drop_rate) +
         " dup=" + std::to_string(faults.dup_rate) +
         " reorder_us=" +
         std::to_string(faults.reorder_delay / sim::kMicrosecond);
    if (faults.kill_rank >= 0) {
      s += " kill=" + std::to_string(faults.kill_rank) + "@r" +
           std::to_string(faults.kill_round);
    }
    s += "]";
  }
  return s;
}

Scenario generate_scenario(std::uint64_t seed, App app) {
  // Salt by app so mm/sor/lu scenarios for the same seed differ.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(app));

  Scenario sc;
  sc.seed = seed;
  sc.app = app;
  sc.slaves = 1 + static_cast<int>(rng.below(6));

  // ---- simulated world: host scheduler and network costs ----
  static constexpr Time kQuanta[] = {5 * sim::kMillisecond,
                                     10 * sim::kMillisecond,
                                     20 * sim::kMillisecond,
                                     50 * sim::kMillisecond};
  sc.world.host.quantum = kQuanta[rng.below(4)];
  sc.world.host.context_switch = 10 * sim::kMicrosecond;
  sc.world.net.latency =
      static_cast<Time>(rng.uniform(20.0, 2000.0)) * sim::kMicrosecond;
  sc.world.net.local_latency =
      static_cast<Time>(rng.uniform(5.0, 20.0)) * sim::kMicrosecond;
  sc.world.net.bandwidth_bps = rng.uniform(10e6, 100e6);
  sc.world.msg.send_overhead =
      static_cast<Time>(rng.uniform(50.0, 300.0)) * sim::kMicrosecond;
  sc.world.msg.recv_overhead =
      static_cast<Time>(rng.uniform(50.0, 300.0)) * sim::kMicrosecond;
  sc.world.seed = rng.next_u64();

  // ---- balancer configuration ----
  sc.lb.min_period =
      static_cast<Time>(rng.uniform(50.0, 600.0)) * sim::kMillisecond;
  sc.lb.improvement_threshold = rng.uniform(0.05, 0.30);
  sc.lb.filtering = rng.below(2) == 0;
  sc.lb.profitability_check = rng.below(2) == 0;
  sc.lb.initial_interaction_cost =
      static_cast<Time>(rng.uniform(0.5, 4.0)) * sim::kMillisecond;
  sc.lb.initial_move_cost =
      static_cast<Time>(rng.uniform(0.5, 4.0)) * sim::kMillisecond;
  // SOR's ghost pipeline and LU's done-flag polling both require pipelined
  // interactions; MM exercises the synchronous (Fig. 2a) path too.
  sc.lb.pipelined = app == App::kMm ? rng.below(2) == 0 : true;

  // ---- application (small sizes: the fuzzer runs hundreds of seeds) ----
  double seq_s = 0;
  switch (app) {
    case App::kMm:
      sc.mm.n = 16 + static_cast<int>(rng.below(33));
      sc.mm.repeats = 1 + static_cast<int>(rng.below(3));
      sc.mm.real_compute = true;
      sc.mm.seed = rng.next_u64();
      seq_s = mm_seq_time_s(sc.mm);
      break;
    case App::kSor:
      sc.sor.n = 16 + static_cast<int>(rng.below(25));
      sc.sor.sweeps = 2 + static_cast<int>(rng.below(3));
      sc.sor.real_compute = true;
      sc.sor.block_rows =
          rng.below(2) == 0 ? 0 : 2 + static_cast<int>(rng.below(7));
      sc.sor.seed = rng.next_u64();
      seq_s = sor_seq_time_s(sc.sor);
      break;
    case App::kLu:
      sc.lu.n = 16 + static_cast<int>(rng.below(33));
      sc.lu.real_compute = true;
      sc.lu.seed = rng.next_u64();
      seq_s = lu_seq_time_s(sc.lu);
      break;
  }

  // ---- competing loads on random ranks ----
  sc.loads.assign(sc.slaves, 0);
  const int nloads = static_cast<int>(rng.below(sc.slaves + 1));
  sc.load_period =
      static_cast<Time>(rng.uniform(1.0, 10.0)) * sim::kSecond;
  for (int i = 0; i < nloads; ++i) {
    sc.loads[rng.below(sc.slaves)] = 1 + static_cast<int>(rng.below(4));
  }

  // A competing load can halve a rank's rate and a 1-slave run has no one
  // to shed work to; 20x sequential plus a fixed margin is far beyond any
  // legitimate completion time, so tripping it means livelock/deadlock.
  sc.time_bound = sim::from_seconds(20.0 * seq_s + 60.0);
  return sc;
}

void apply_fault_plan(Scenario& sc, const FaultPlan& plan) {
  if (!plan.any()) return;  // an empty plan perturbs nothing, not even the
                            // transport: faults off stays bit-identical
  sc.faults = plan;
  if (sc.faults.kill_rank >= 0 && sc.app != App::kMm) sc.faults.kill_rank = -1;

  // Lossy network, confined to the lb protocol tags: the runtime's
  // report/instruction/movement traffic (and its acks) rides the reliable
  // transport, while the applications' data plane (ghost exchanges, pivot
  // broadcasts) has no retransmit layer and must stay lossless.
  sc.world.net.drop_prob = sc.faults.drop_rate;
  sc.world.net.dup_prob = sc.faults.dup_rate;
  sc.world.net.max_extra_delay = sc.faults.reorder_delay;
  sc.world.net.fault_seed = sc.world.seed ^ 0xfa01753cd15ab1eull;
  sc.world.net.fault_tag_lo = lb::kTagReport;
  sc.world.net.fault_tag_hi = lb::kTagAck;
  sc.lb.transport.enabled = true;

  if (sc.faults.kill_rank >= 0) {
    // A crash needs a survivor to adopt the orphans.
    if (sc.slaves < 2) sc.slaves = 2;
    sc.loads.resize(static_cast<std::size_t>(sc.slaves), 0);
    sc.faults.kill_rank %= sc.slaves;
    if (sc.faults.kill_round < 1) sc.faults.kill_round = 1;
    // Heartbeat regime: generously above the report period so a slow but
    // live rank is never falsely evicted, yet far below the watchdog.
    sc.lb.heartbeat_timeout = 20 * sc.lb.min_period + 10 * sim::kSecond;
    sc.time_bound += 3 * sc.lb.heartbeat_timeout + 30 * sim::kSecond;
  }
}

namespace {

void attach_loads(lb::Cluster& cluster, const Scenario& sc) {
  for (int r = 0; r < sc.slaves; ++r) {
    switch (sc.loads[r]) {
      case 0:
        break;
      case 1:
        cluster.add_load(r, load::constant());
        break;
      case 2:
        cluster.add_load(r, load::oscillating(sc.load_period,
                                              sc.load_period / 2));
        break;
      case 3:
        cluster.add_load(r, load::ramp(sc.load_period));
        break;
      case 4:
        cluster.add_load(r, load::random_bursts(
                                 sc.load_period / 20, sc.load_period / 4,
                                 sc.load_period / 20, sc.load_period / 3));
        break;
    }
  }
}

}  // namespace

FuzzResult run_scenario(const Scenario& sc, InvariantSet::Fault fault,
                        obs::Observability* obs) {
  sim::World world(sc.world);
  // Attach before the cluster is built: the master/slave/transport
  // emitters bind to the hub at construction.
  obs::attach(world, obs);

  InvariantSet set;
  set.bind_clock(&world.engine());
  set.inject_fault(fault);
  if (obs != nullptr) {
    set.add(std::make_unique<LedgerChecker>(&obs->ledger));
  }
  data::SliceLedgerScope ledger_scope(&set);

  lb::LbConfig lbcfg = sc.lb;
  lbcfg.check = &set;

  std::shared_ptr<apps::MmShared> mm;
  std::shared_ptr<apps::SorShared> sor;
  std::shared_ptr<apps::LuShared> lu;
  // Sequential-oracle reference, computed from a pre-run input copy (the
  // parallel run mutates the shared state in place).
  std::vector<std::vector<double>> reference;

  // Build the cluster (the config helpers force the app's movement mode,
  // termination and unit count, which the standard checkers read).
  lb::ClusterConfig ccfg;
  switch (sc.app) {
    case App::kMm:
      mm = std::make_shared<apps::MmShared>();
      apps::mm_make_inputs(sc.mm, *mm);
      ccfg = apps::mm_cluster_config(sc.mm, sc.slaves, lbcfg);
      break;
    case App::kSor:
      sor = std::make_shared<apps::SorShared>();
      apps::sor_make_inputs(sc.sor, *sor);
      reference = sor->grid;
      apps::sor_sequential(sc.sor, reference);
      ccfg = apps::sor_cluster_config(sc.sor, sc.slaves, lbcfg);
      break;
    case App::kLu:
      lu = std::make_shared<apps::LuShared>();
      apps::lu_make_inputs(sc.lu, *lu);
      reference = lu->a;
      apps::lu_sequential(sc.lu, reference);
      ccfg = apps::lu_cluster_config(sc.lu, sc.slaves, lbcfg);
      break;
  }
  add_standard_checkers(set, ccfg);

  lb::Cluster cluster(world, ccfg);
  switch (sc.app) {
    case App::kMm:
      apps::mm_build(cluster, sc.mm, mm);
      break;
    case App::kSor:
      apps::sor_build(cluster, sc.sor, sor);
      break;
    case App::kLu:
      apps::lu_build(cluster, sc.lu, lu);
      break;
  }
  attach_loads(cluster, sc);

  // Crash-fault injection: kill the victim once the master has completed
  // the trigger round's collection (pids exist only after spawn).
  if (sc.faults.kill_rank >= 0) {
    set.add(std::make_unique<CrashInjector>(
        world, cluster.slave_pid(sc.faults.kill_rank), sc.faults.kill_round));
  }

  // Watchdog: a correct run always finishes well before the bound; firing
  // it leaves essential processes outstanding, reported below.
  world.engine().schedule_at(sc.time_bound, [&world] { world.engine().stop(); });

  // A simulated process that throws (a failed NOWLB_CHECK) stops the run;
  // record it as this seed's failure instead of letting it escape.
  bool threw = false;
  try {
    world.run();
  } catch (const std::exception& e) {
    set.record({"process", e.what(), world.now()});
    threw = true;
  }

  const Time end = world.now();
  const bool terminated = world.essential_remaining() == 0;
  if (!terminated && !threw) {
    std::string stuck;
    for (sim::Pid p = 0; p < static_cast<sim::Pid>(world.process_count());
         ++p) {
      const sim::Process& proc = world.process(p);
      if (proc.essential() && !proc.finished()) {
        if (!stuck.empty()) stuck += ", ";
        stuck += proc.name();
      }
    }
    const std::vector<apps::Probe>* probes = nullptr;
    if (sor) probes = &sor->probe;
    if (lu) probes = &lu->probe;
    if (probes != nullptr) {
      stuck += " | probes:";
      for (int r = 0; r < sc.slaves; ++r) {
        stuck += " [" + std::to_string(r) + "] " + (*probes)[r].text();
      }
    }
    set.record({"termination",
                std::to_string(world.essential_remaining()) +
                    " essential process(es) still running at the " +
                    std::to_string(to_seconds(sc.time_bound)) +
                    "s time bound: " + stuck,
                end});
  }
  // The end-of-run checks and the oracle read a finished run only: a run
  // that stopped early fails with the failure that stopped it, not with
  // the work its stop left in flight.
  if (terminated) {
    set.on_run_end(end);
    // Numerical oracle: the parallel kernels preserve the sequential FP
    // evaluation order, so the comparison is bit-exact.
    switch (sc.app) {
      case App::kMm: {
        if (mm->c != apps::mm_sequential(sc.mm, *mm)) {
          set.record({"oracle", "MM result differs from sequential", end});
        }
        for (std::size_t j = 0; j < mm->compute_count_per_column.size();
             ++j) {
          if (mm->compute_count_per_column[j] != sc.mm.repeats) {
            set.record(
                {"oracle",
                 "column " + std::to_string(j) + " computed " +
                     std::to_string(mm->compute_count_per_column[j]) +
                     " times, expected " + std::to_string(sc.mm.repeats),
                 end});
            break;
          }
        }
        break;
      }
      case App::kSor:
        if (sor->grid != reference) {
          set.record({"oracle", "SOR grid differs from sequential", end});
        }
        break;
      case App::kLu:
        if (lu->a != reference) {
          set.record({"oracle", "LU factors differ from sequential", end});
        }
        break;
    }
  }

  FuzzResult res;
  res.ok = set.ok();
  res.failures = set.failures();
  res.elapsed_s = to_seconds(end);
  res.trace_hash = world.engine().trace_hash();
  return res;
}

}  // namespace nowlb::check
