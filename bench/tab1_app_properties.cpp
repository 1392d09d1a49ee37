// Table 1: application properties, derived automatically from each
// application's LoopNestSpec by the compiler analysis (loop::analyze) —
// the information the paper says "existing compilers are already capable
// of identifying".
#include <iostream>

#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "apps/sor.hpp"
#include "loop/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace nowlb;

namespace {
const char* yn(bool b) { return b ? "yes" : "no"; }
}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {});  // no flags; answers --help
  apps::MmConfig mm;
  mm.repeats = 8;  // the benchmark multiplies repeatedly
  apps::SorConfig sor;
  apps::LuConfig lu;

  const loop::AppProperties props[] = {
      loop::analyze(apps::mm_spec(mm)),
      loop::analyze(apps::sor_spec(sor)),
      loop::analyze(apps::lu_spec(lu)),
  };

  Table t("Table 1: application properties (derived from loop specs)");
  t.header({"property", "MM", "SOR", "LU"});
  t.row().cell("loop-carried dependences");
  for (const auto& p : props) t.cell(yn(p.loop_carried_dependences));
  t.row().cell("communication outside loop");
  for (const auto& p : props) t.cell(yn(p.communication_outside_loop));
  t.row().cell("repeated execution of loop");
  for (const auto& p : props) t.cell(yn(p.repeated_execution));
  t.row().cell("varying loop bounds");
  for (const auto& p : props) t.cell(yn(p.varying_loop_bounds));
  t.row().cell("index-dependent iteration size");
  for (const auto& p : props) t.cell(yn(p.index_dependent_iteration_size));
  t.row().cell("data-dependent iteration size");
  for (const auto& p : props) t.cell(yn(p.data_dependent_iteration_size));
  t.print(std::cout);

  std::cout << "\npaper's Table 1 row for comparison: MM(no,no,yes,no,no,no) "
               "SOR(yes,yes,yes,no,no,no) LU(no,yes,yes,yes,yes,no)\n";
  return 0;
}
