// Locating distributed data elements whose owner is unknown locally (§4.6).
//
// With a run-time-varying distribution, a slave cannot compute which peer
// owns a given slice from local information. For statements outside the
// distributed loop that reference distributed data, the paper's solution is
// broadcast-and-discard: the owner broadcasts the element; every other
// slave receives it and keeps it only if relevant. All group members must
// call these functions at the same logical point (SPMD).
#pragma once

#include <vector>

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace nowlb::data {

/// Fetch element (slice, offset) of a distributed array into every slave
/// (replicated read). The owner broadcasts; everyone returns the value.
template <typename T>
sim::Task<T> locate_fetch(sim::Context& ctx,
                          const std::vector<sim::Pid>& group, sim::Tag tag,
                          const DistArray<T>& arr, SliceId slice,
                          std::size_t offset) {
  if (arr.owns(slice)) {
    T v = arr.slice(slice).at(offset);
    const auto payload = msg::encode(v);
    for (sim::Pid p : group) {
      if (p != ctx.pid()) co_await ctx.send(p, tag, payload);
    }
    co_return v;
  }
  sim::Message m = co_await ctx.recv(tag, sim::kAnyPid);
  co_return msg::decode<T>(m.payload);
}

/// Distributed assignment `arr[dst][dst_off] = arr[src][src_off]` where
/// neither owner is known locally: the source owner broadcasts, the
/// destination owner stores, everyone else discards.
template <typename T>
sim::Task<> locate_assign(sim::Context& ctx,
                          const std::vector<sim::Pid>& group, sim::Tag tag,
                          DistArray<T>& arr, SliceId src, std::size_t src_off,
                          SliceId dst, std::size_t dst_off) {
  T v = co_await locate_fetch(ctx, group, tag, arr, src, src_off);
  if (arr.owns(dst)) arr.slice(dst).at(dst_off) = v;
}

}  // namespace nowlb::data
