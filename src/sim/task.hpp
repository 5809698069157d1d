// Lazy coroutine task type for simulation processes.
//
// `Task<T>` is a lazily-started coroutine: creating one does nothing until it
// is either awaited by another task (structured, call-like composition with
// symmetric transfer back to the awaiter) or handed to `Engine::spawn()`
// (detached process; the engine destroys the frame when it finishes).
//
// Exceptions propagate through `co_await` like ordinary calls.  An exception
// escaping a *detached* task is captured by the engine, which stops the run
// and rethrows from `Engine::run()` — a simulation never limps on past a
// broken process.
//
// Frames come from the per-thread `FramePool` (frame_pool.hpp) rather than
// the general-purpose heap: a simulated request creates and destroys a chain
// of them, so steady-state simulation recycles frames instead of allocating.

#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/assert.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace sio::sim {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  Engine* owner = nullptr;  // set only for detached (spawned) tasks
  std::exception_ptr error{};
#if SIO_SIM_CHECKS
  FrameCheck check;  // sim-sanitizer state (engine.hpp)
#endif

  static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FramePool::deallocate(p, bytes);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <class Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) {
        return p.continuation;  // symmetric transfer back to the awaiter
      }
      if (p.owner != nullptr) {
        Engine* eng = p.owner;
        std::exception_ptr err = p.error;
        h.destroy();
        eng->on_detached_task_done();
        if (err) eng->report_task_error(err);
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    alignas(T) unsigned char storage[sizeof(T)];
    bool has_value = false;

    Task get_return_object() { return Task(std::coroutine_handle<promise_type>::from_promise(*this)); }
    void return_value(T value) {
      ::new (static_cast<void*>(storage)) T(std::move(value));
      has_value = true;
    }
    ~promise_type() {
      if (has_value) std::launder(reinterpret_cast<T*>(storage))->~T();
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  /// Awaiting a task starts it and resumes the awaiter when it finishes.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.error) std::rethrow_exception(p.error);
        SIO_ASSERT(p.has_value);
        return std::move(*std::launder(reinterpret_cast<T*>(p.storage)));
      }
    };
    SIO_ASSERT(handle_ != nullptr);
    return Awaiter{handle_};
  }

 private:
  std::coroutine_handle<promise_type> handle_{};

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() { return Task(std::coroutine_handle<promise_type>::from_promise(*this)); }
    void return_void() const noexcept {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    SIO_ASSERT(handle_ != nullptr);
    return Awaiter{handle_};
  }

  /// Releases ownership of the coroutine frame (used by Engine::spawn).
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, nullptr); }

 private:
  std::coroutine_handle<promise_type> handle_{};

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
};

inline void Engine::spawn(Task<void> task) {
  auto h = task.release();
  SIO_ASSERT(h != nullptr);
  h.promise().owner = this;
  ++live_tasks_;
  post(h);
}

}  // namespace sio::sim
