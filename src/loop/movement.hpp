// Generated work movement (§4.5–4.7, Table 2): the gather/scatter a
// compiler emits for a distributed loop whose iterations are the slices of
// one DistArray and may move to any slave (unrestricted movement, Fig. 1a).
// The library moves slices and tracks which ones are held; the application
// supplies only which of them are still active. Pipelined loops move the
// edge of a block with its boundary state, so SOR writes its own.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "data/dist_array.hpp"
#include "lb/slave.hpp"
#include "sim/task.hpp"

namespace nowlb::loop {

/// WorkOps over `cols`, where `active(id, marker)` is true while a held
/// slice still has work in the current invocation. Only active slices
/// count as remaining and move (§4.7: inactive data stays put); pack hands
/// off the highest of them with their markers. `cols` must outlive the
/// ops. adopt, which needs the application's inputs, is left unset.
template <typename Active>
lb::SlaveAgent::WorkOps array_ops(data::DistArray<double>& cols,
                                  Active active) {
  lb::SlaveAgent::WorkOps ops;
  ops.remaining = [&cols, active] { return cols.count_if(active); };
  ops.pack = [&cols, active](int count,
                             int) -> sim::Task<std::pair<sim::Payload, int>> {
    const auto ids = cols.highest_if(count, active);
    const int actual = static_cast<int>(ids.size());
    co_return std::make_pair(cols.pack_and_remove(ids), actual);
  };
  ops.unpack = [&cols](sim::Payload payload, int) -> sim::Task<int> {
    co_return static_cast<int>(cols.unpack_and_add(std::move(payload)).size());
  };
  ops.inventory = [&cols] {
    const auto ids = cols.owned_ids();
    return std::vector<std::int32_t>(ids.begin(), ids.end());
  };
  return ops;
}

}  // namespace nowlb::loop
