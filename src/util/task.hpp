// Coroutine task type.
//
// Task<T> is a lazily-started C++20 coroutine with symmetric transfer: a
// simulated process is an ordinary coroutine returning Task<>, suspended
// on primitive awaitables (compute / sleep / recv) and resumed by the
// engine at the right virtual time; helper coroutines (protocol
// receives, application phases) compose without stack growth or manual
// callbacks. The type itself is pure coroutine machinery with no
// simulator dependency, which is why it lives in util (sim/task.hpp
// re-exports it as sim::Task).
//
// Lifetime: Task owns the coroutine frame and destroys it in its destructor.
// Destroying an outer frame destroys the inner Task objects held in it, so
// tearing down a world mid-computation (e.g. infinite load generators)
// reclaims whole coroutine stacks without running them to completion.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace nowlb {

namespace detail {

struct TaskPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

template <typename T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// Lazily-started coroutine; owns its frame. Await it to run it to
/// completion (with symmetric transfer back to the awaiter), or call
/// start() once to kick off a root task driven by external resumptions.
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return !h_ || h_.done(); }

  /// Begin executing a root task. The frame stays alive (owned by this
  /// Task) after completion; poll done() or wrap the body to observe it.
  void start() { h_.resume(); }

  /// Rethrow any exception captured by a completed root task.
  void rethrow_if_error() {
    if (h_ && h_.promise().error) std::rethrow_exception(h_.promise().error);
  }

  // Awaiter interface (await a Task to run it as a child).
  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<T>) return std::move(*p.value);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace nowlb
