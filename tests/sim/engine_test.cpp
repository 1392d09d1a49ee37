#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace nowlb::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

// std::function keeps a callable that is large or not trivially copyable
// on the heap, and copying the function copies the callable. The reliable
// transport arms such a timer, a 20-byte closure, on every send, so
// scheduling must move the callback all the way into the queue.
TEST(Engine, ScheduleAfterMovesItsCallback) {
  struct Counted {
    int* copies;
    bool* fired;
    Counted(int* c, bool* f) : copies(c), fired(f) {}
    Counted(const Counted& o) : copies(o.copies), fired(o.fired) {
      ++*copies;
    }
    Counted(Counted&&) noexcept = default;
    void operator()() const { *fired = true; }
  };
  int copies = 0;
  bool fired = false;
  Engine e;
  e.schedule_after(10, Counted(&copies, &fired));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(copies, 0);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_at(10, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CancelAfterFireIsSafe) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash or corrupt counters
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, EventsScheduledDuringDispatchRun) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] {
    ++count;
    e.schedule_after(1, [&] { ++count; });
  });
  e.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.now(), 2);
}

TEST(Engine, StopHaltsDispatch) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] {
    ++count;
    e.stop();
  });
  e.schedule_at(2, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 1);
  // Remaining event still pending.
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(500);
  EXPECT_EQ(e.now(), 500);
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine e;
  bool early = false, late = false;
  e.schedule_at(100, [&] { early = true; });
  e.schedule_at(1000, [&] { late = true; });
  e.run_until(500);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.now(), 500);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(100, [&] {
    EXPECT_THROW(e.schedule_at(50, [] {}), CheckFailure);
  });
  e.run();
}

TEST(Engine, FailRethrowsFromRun) {
  Engine e;
  e.schedule_at(1, [&] {
    e.fail(std::make_exception_ptr(std::runtime_error("boom")));
  });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, CountsDispatchedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.dispatched_events(), 5u);
}

TEST(Engine, DoubleCancelLeavesQueueConsistent) {
  Engine e;
  bool other = false;
  auto id = e.schedule_at(10, [] {});
  auto copy = id;
  e.schedule_at(20, [&] { other = true; });
  e.cancel(id);
  EXPECT_EQ(e.pending_events(), 1u);
  // Cancelling again — via the original or a copy taken before the first
  // cancel — must not decrement the live count a second time.
  e.cancel(id);
  e.cancel(copy);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_TRUE(other);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.dispatched_events(), 1u);
}

TEST(Engine, CancelCopiesAfterFireLeaveQueueConsistent) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  auto copy = id;
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  e.cancel(id);
  e.cancel(copy);
  e.cancel(copy);  // id already reset by the first cancel of this handle
  EXPECT_EQ(e.pending_events(), 0u);
  // The engine must still schedule and dispatch normally afterwards.
  bool fired = false;
  e.schedule_at(20, [&] { fired = true; });
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_TRUE(fired);
}

// Golden seed-stability regression: the same seeded event cascade must
// produce bit-identical trace hashes run after run — the property the
// fuzzer's replay-to-prove-determinism step rests on.
namespace {

std::pair<std::uint64_t, std::uint64_t> traced_cascade(std::uint64_t seed) {
  Engine e;
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // Each event reschedules a few descendants at pseudo-random offsets and
  // cancels some of them again, exercising queue order and cancellation.
  std::vector<Engine::EventId> cancellable;
  std::function<void()> spawn = [&] {
    if (e.dispatched_events() > 400) return;
    const int kids = static_cast<int>(next() % 3);
    for (int i = 0; i <= kids; ++i) {
      auto id = e.schedule_after(static_cast<Time>(1 + next() % 50), spawn);
      if (next() % 4 == 0) cancellable.push_back(id);
    }
    if (!cancellable.empty() && next() % 2 == 0) {
      e.cancel(cancellable.back());
      cancellable.pop_back();
    }
  };
  e.schedule_at(0, spawn);
  e.schedule_at(0, spawn);
  e.run();
  return {e.trace_hash(), e.dispatched_events()};
}

}  // namespace

TEST(Engine, TraceHashStableForSameSeed) {
  const auto a = traced_cascade(42);
  const auto b = traced_cascade(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // And the hash actually depends on the trace.
  const auto c = traced_cascade(43);
  EXPECT_NE(a.first, c.first);
}

}  // namespace
}  // namespace nowlb::sim
