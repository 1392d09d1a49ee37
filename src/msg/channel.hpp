// Typed receives on top of sim::Context.
//
//   Report r = co_await msg::recv<Report>(ctx, kTagReport);
#pragma once

#include "msg/serialize.hpp"
#include "sim/context.hpp"
#include "util/task.hpp"

namespace nowlb::msg {

using sim::Context;
using sim::Message;
using sim::Pid;
using sim::Tag;
using nowlb::Task;

/// Receive a message with `tag` (optionally from `src`) and decode it.
template <typename T>
Task<T> recv(Context& ctx, Tag tag, Pid src = sim::kAnyPid) {
  Message m = co_await ctx.recv(tag, src);
  co_return decode<T>(m.payload);
}

/// Receive and decode, also reporting the sender.
template <typename T>
Task<std::pair<Pid, T>> recv_from_any(Context& ctx, Tag tag) {
  Message m = co_await ctx.recv(tag, sim::kAnyPid);
  co_return std::pair<Pid, T>(m.src, decode<T>(m.payload));
}

}  // namespace nowlb::msg
