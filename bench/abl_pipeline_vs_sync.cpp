// Ablation (Fig. 2 / §3.3): pipelined vs synchronous master interactions.
// "Experiments comparing the pipelined and synchronous approaches confirm
// that pipelining is important" — especially as network latency grows,
// because the synchronous round trip sits on every slave's critical path.
#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace nowlb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"reps", "n"});
  const int reps = static_cast<int>(cli.get_int("reps", 2));

  apps::MmConfig mm;
  mm.n = static_cast<int>(cli.get_int("n", 500));

  Table t("Ablation: pipelined vs synchronous master interaction "
          "(MM, 6 slaves, load on slave 0)");
  t.header({"net latency(ms)", "sync(s)", "pipelined(s)", "sync eff",
            "pipe eff"});

  for (double latency_ms : {0.1, 1.0, 5.0, 20.0}) {
    exp::ExperimentConfig cfg;
    cfg.slaves = 6;
    cfg.world = exp::paper_world();
    cfg.world.net.latency = sim::from_seconds(latency_ms / 1000.0);
    cfg.lb = exp::paper_lb();
    cfg.loads.push_back({0, [] { return load::constant(); }});

    mm.use_lb = true;
    cfg.lb.pipelined = false;
    auto sync = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_mm(mm, c);
    });
    cfg.lb.pipelined = true;
    auto pipe = bench::measure(reps, cfg, [&](const exp::ExperimentConfig& c) {
      return exp::run_mm(mm, c);
    });

    t.row()
        .cell(latency_ms, 1)
        .cell(sync.elapsed_s.mean(), 1)
        .cell(pipe.elapsed_s.mean(), 1)
        .cell(sync.efficiency.mean(), 2)
        .cell(pipe.efficiency.mean(), 2);
  }
  bench::print_table(t);
  return 0;
}
