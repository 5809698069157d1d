// Deadline timer and timeout-race composition.
//
// `Timeout` is a one-shot deadline latch: arm it for a duration, then await
// `wait()` — the awaiter resumes either when the deadline fires (kTimedOut)
// or when some task calls `cancel()` first (kCompleted).  Like every other
// primitive it wakes waiters by posting through the engine queue and
// registers waiter provenance for the sim-sanitizer's deadlock report.
//
// `with_timeout(engine, task, deadline)` races a task against a deadline.
// The simulation engine has no way to cancel an arbitrary in-flight
// coroutine (it may be parked deep inside a disk queue), so a timed-out task
// is *abandoned*, not destroyed: it keeps running detached and its effects
// still happen — exactly the semantics of an RPC whose reply arrives after
// the client gave up.  That is deliberate: it is what makes server-side
// idempotent replay (pfs operation ids) necessary and testable.

#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/assert.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sio::sim {

/// Result of racing an operation against a deadline.
enum class WaitStatus : std::uint8_t {
  kCompleted = 0,  ///< the operation finished before the deadline
  kTimedOut,       ///< the deadline fired first
};

constexpr const char* wait_status_name(WaitStatus s) {
  return s == WaitStatus::kCompleted ? "completed" : "timed-out";
}

/// One-shot deadline latch.  State lives on the heap and is shared with the
/// scheduled expiry event, so the timer object may be destroyed (or the
/// owning coroutine frame freed) while the expiry event is still queued —
/// the stale event then settles nothing.
class Timeout {
 public:
  explicit Timeout(Engine& engine, const char* name = nullptr);
  ~Timeout();

  Timeout(const Timeout&) = delete;
  Timeout& operator=(const Timeout&) = delete;

  /// Schedules the expiry `d` ticks from now.  May be armed once.
  void arm(Tick d);

  /// Settles the timer as kCompleted if it has not expired yet; waiters are
  /// woken in FIFO order.  Idempotent; a no-op after expiry.
  void cancel();

  bool armed() const { return st_->phase == Phase::kArmed; }
  bool expired() const { return st_->phase == Phase::kExpired; }
  /// True once the race is decided (expired or cancelled).
  bool settled() const {
    return st_->phase == Phase::kExpired || st_->phase == Phase::kCancelled;
  }
  std::size_t waiter_count() const { return st_->waiters.size(); }

  /// Awaitable: suspends until the timer settles; returns kTimedOut if the
  /// deadline fired, kCompleted if it was cancelled first.
  auto wait() {
    struct Awaiter {
      State& st;
      bool await_ready() const {
        return st.phase == Phase::kExpired || st.phase == Phase::kCancelled;
      }
      void await_suspend(WaitHandle h) {
        st.engine.note_blocked(h, "Timeout", st.name);
        st.waiters.push_back(h);
      }
      WaitStatus await_resume() const {
        return st.phase == Phase::kExpired ? WaitStatus::kTimedOut : WaitStatus::kCompleted;
      }
    };
    return Awaiter{*st_};
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kArmed, kExpired, kCancelled };

  struct State {
    State(Engine& e, const char* n) : engine(e), name(n) {}
    Engine& engine;
    const char* name;
    Phase phase = Phase::kIdle;
    std::deque<WaitHandle> waiters;
  };

  std::shared_ptr<State> st_;

  static void settle(const std::shared_ptr<State>& st, Phase to);
};

/// Result of `with_timeout` over a value-returning task: on kCompleted,
/// `value` holds the task's result; on kTimedOut it is empty and the task
/// keeps running detached (its eventual result is discarded).
template <class T>
struct TimedResult {
  WaitStatus status = WaitStatus::kCompleted;
  std::optional<T> value{};

  bool timed_out() const { return status == WaitStatus::kTimedOut; }
};

namespace detail {

inline Task<void> finish_then_cancel(Task<void> inner, std::shared_ptr<Timeout> timer) {
  co_await std::move(inner);
  timer->cancel();
}

template <class T>
Task<void> finish_capture_cancel(Task<T> inner, std::shared_ptr<Timeout> timer,
                                 std::shared_ptr<std::optional<T>> slot) {
  *slot = co_await std::move(inner);
  timer->cancel();
}

}  // namespace detail

/// Races `inner` against `deadline` ticks.  Returns kCompleted if the task
/// finished first, kTimedOut otherwise — in which case the task is abandoned
/// and keeps running detached (see file header).  An exception escaping the
/// inner task stops the run through the usual detached-task path.
inline Task<WaitStatus> with_timeout(Engine& engine, Task<void> inner, Tick deadline,
                                     const char* name = nullptr) {
  auto timer = std::make_shared<Timeout>(engine, name != nullptr ? name : "with_timeout");
  timer->arm(deadline);
  engine.spawn(detail::finish_then_cancel(std::move(inner), timer));
  co_return co_await timer->wait();
}

/// Value-returning variant: on kCompleted the TimedResult carries the task's
/// value; on kTimedOut the abandoned task's eventual value is discarded.
template <class T>
  requires(!std::is_void_v<T>)
Task<TimedResult<T>> with_timeout(Engine& engine, Task<T> inner, Tick deadline,
                                  const char* name = nullptr) {
  auto timer = std::make_shared<Timeout>(engine, name != nullptr ? name : "with_timeout");
  auto slot = std::make_shared<std::optional<T>>();
  timer->arm(deadline);
  engine.spawn(detail::finish_capture_cancel<T>(std::move(inner), timer, slot));
  const WaitStatus status = co_await timer->wait();
  TimedResult<T> result;
  result.status = status;
  if (status == WaitStatus::kCompleted && slot->has_value()) {
    result.value = std::move(*slot);
  }
  co_return result;
}

}  // namespace sio::sim
