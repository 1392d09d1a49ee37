// obs.trace_append: the flight recorder's append path into a fresh bus.
#include "obs/trace.hpp"
#include "perf/bench.hpp"
#include "perf/wallclock.hpp"

namespace nowlb::perf {

/// 32,768 instants with three args each, appended into a fresh
/// obs::TraceBus that is then destroyed, as exp::run and perfbench build
/// one hub per run. What the bus's storage costs a new run, fresh memory
/// and any regrowth copies, counts here; obs.overhead reuses one cleared
/// hub and cannot see it.
double trace_append(const BenchOptions&, std::map<std::string, double>& extra) {
  constexpr int kEvents = 32'768;
  std::size_t held = 0;
  const double t0 = wall_seconds();
  {
    obs::TraceBus bus;
    for (int i = 0; i < kEvents; ++i) {
      bus.instant(i, i % 8, i % 4, "msg", "msg.send", {"bytes", 64.0 * i},
                  {"tag", 7.0}, {"to", i % 4 * 1.0});
    }
    held = bus.events().size();
  }
  const double dt = wall_seconds() - t0;
  extra["events"] = static_cast<double>(held);
  return kEvents / dt;
}

}  // namespace nowlb::perf
