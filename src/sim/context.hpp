// Context: the API surface a simulated process programs against.
//
// Inside a process body (a Task<> coroutine) the context provides the
// primitive operations of the simulated machine:
//
//   co_await ctx.compute(cpu);          // burn CPU under the host scheduler
//   co_await ctx.sleep(dt);             // wall-clock delay, no CPU
//   co_await ctx.send(dst, tag, p);     // message send (charges sw overhead)
//   Message m = co_await ctx.recv(tag); // blocking selective receive
//
// A payload is head bytes plus owned segments (util/bytes.hpp); a send
// moves it to the receiver. msg/serialize.hpp encodes and decodes them.
#pragma once

#include <coroutine>
#include <optional>

#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace nowlb::sim {

class World;

/// Suspends a process until it has accumulated `demand` CPU time on its
/// host, competing with other runnable processes for quantum slices.
struct ComputeAwaiter {
  Process& p;
  Time demand;
  bool await_ready() const noexcept { return demand <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    p.resume_point = h;
    p.host().submit(p, demand);
  }
  void await_resume() const noexcept {}
};

/// Suspends a process for `dt` of virtual wall time without consuming CPU.
/// The wakeup is routed through the process so a killed sleeper is never
/// resumed (its frame outlives it, suspended, until world teardown).
struct SleepAwaiter {
  Process& p;
  Engine& eng;
  Time dt;
  bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    p.resume_point = h;
    Process* pp = &p;
    eng.schedule_after(dt, [pp] {
      if (!pp->killed()) pp->resume();
    });
  }
  void await_resume() const noexcept {}
};

/// Suspends until a message matching (tag, src) is available.
struct RecvAwaiter {
  Process& p;
  Tag tag;
  Pid src;
  std::optional<Message> msg;
  bool await_ready() {
    msg = p.mailbox().try_pop(tag, src);
    return msg.has_value();
  }
  void await_suspend(std::coroutine_handle<> h) {
    p.mailbox().set_pending(tag, src, [this, h](Message m) {
      msg = std::move(m);
      h.resume();
    });
  }
  Message await_resume() { return std::move(*msg); }
};

/// Suspends until a matching message arrives or `deadline` passes,
/// whichever is first; resumes with nullopt on timeout. The failure
/// detector's primitive (Master heartbeat deadline, DESIGN.md §9).
struct RecvTimeoutAwaiter {
  Process& p;
  Engine& eng;
  Tag tag;
  Pid src;
  Time deadline;
  std::optional<Message> msg;
  Engine::EventId timer;
  bool await_ready() {
    msg = p.mailbox().try_pop(tag, src);
    return msg.has_value() || eng.now() >= deadline;
  }
  void await_suspend(std::coroutine_handle<> h) {
    p.mailbox().set_pending(tag, src, [this, h](Message m) {
      eng.cancel(timer);
      msg = std::move(m);
      h.resume();
    });
    Process* pp = &p;
    timer = eng.schedule_at(deadline, [this, pp, h] {
      pp->mailbox().cancel_pending();
      if (!pp->killed()) h.resume();
    });
  }
  std::optional<Message> await_resume() { return std::move(msg); }
};

class Context {
 public:
  Context(World& world, Process& process);

  Pid pid() const;
  int host_id() const;
  Time now() const;
  World& world() { return world_; }
  Process& process() { return process_; }
  Rng& rng() { return rng_; }

  /// Consume `cpu` of CPU time (sliced by the host scheduler).
  ComputeAwaiter compute(Time cpu) { return ComputeAwaiter{process_, cpu}; }

  /// Wait `dt` of wall time without using CPU.
  SleepAwaiter sleep(Time dt);

  /// Send a message; charges the sender's software overhead as CPU, then
  /// hands the message to the network. Completes when the message is on
  /// the wire (asynchronous send).
  Task<> send(Pid dst, Tag tag, Payload payload);

  /// Blocking selective receive; charges receive overhead as CPU.
  Task<Message> recv(Tag tag = kAnyTag, Pid src = kAnyPid);

  /// Selective receive with an absolute deadline: resumes with nullopt
  /// if no matching message arrives by `deadline`. Charges receive
  /// overhead only when a message is delivered.
  Task<std::optional<Message>> recv_until(Tag tag, Pid src, Time deadline);

  /// Receive without charging software overhead (protocol internals).
  RecvAwaiter recv_raw(Tag tag = kAnyTag, Pid src = kAnyPid) {
    return RecvAwaiter{process_, tag, src, std::nullopt};
  }

  /// Non-blocking probe: pop a matching message if one is queued.
  std::optional<Message> try_recv(Tag tag = kAnyTag, Pid src = kAnyPid) {
    return process_.mailbox().try_pop(tag, src);
  }

 private:
  World& world_;
  Process& process_;
  Rng rng_;
};

}  // namespace nowlb::sim
