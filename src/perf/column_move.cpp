// data.column_move: Fig. 8's mean work transfer, moved there and back.
#include <numeric>
#include <vector>

#include "data/dist_array.hpp"
#include "perf/bench.hpp"
#include "perf/wallclock.hpp"

namespace nowlb::perf {

/// 225 columns of 2,000 doubles, Fig. 8's mean move (1,406 moves carry
/// 2,313 MB), shift from the top of one 500-column array to the bottom of
/// its neighbour's and back. Moving the columns' vectors instead of
/// copying them is what this measures.
double column_move(const BenchOptions&, std::map<std::string, double>& extra) {
  constexpr int iters = 500;
  constexpr int kColumns = 500;
  constexpr int kMoved = 225;
  constexpr std::size_t kRows = 2'000;
  data::DistArray<double> left(kRows);
  data::DistArray<double> right(kRows);
  for (data::SliceId j = 0; j < kColumns; ++j) {
    left.add(j, std::vector<double>(kRows, j));
    right.add(kColumns + j, std::vector<double>(kRows, kColumns + j));
  }
  std::vector<data::SliceId> ids(kMoved);
  std::iota(ids.begin(), ids.end(), kColumns - kMoved);
  const double t0 = wall_seconds();
  for (int i = 0; i < iters; ++i) {
    right.unpack_and_add(left.pack_and_remove(ids));
    left.unpack_and_add(right.pack_and_remove(ids));
  }
  const double dt = wall_seconds() - t0;
  extra["mb_per_move"] = kMoved * kRows * sizeof(double) / 1e6;
  return 2.0 * iters * kMoved / dt;
}

}  // namespace nowlb::perf
