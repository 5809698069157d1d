// Coroutine synchronization primitives for simulation processes.
//
// Every primitive is strictly FIFO and wakes waiters by *posting* the resume
// through the engine's event queue rather than resuming inline.  That keeps
// stacks shallow (no resume recursion), and makes wake-up order — and hence
// the whole simulation — deterministic.
//
// Provided: Event (one-shot latch), Mutex (FIFO, with RAII scoped lock),
// Semaphore, Barrier (cyclic), WaitGroup (fan-in join), and Channel<T>
// (unbounded FIFO queue with blocking pop).
//
// Every primitive registers waiter provenance with the engine (an optional
// constructor `name` labels the instance), so the sim-sanitizer's deadlock
// report can say how many tasks are parked on which primitive.

#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/assert.hpp"
#include "sim/engine.hpp"

namespace sio::sim {

/// One-shot latch: tasks wait until some task calls set(); afterwards waits
/// complete immediately.
class Event {
 public:
  explicit Event(Engine& eng, const char* name = nullptr) : engine_(eng), name_(name) {}

  bool is_set() const { return set_; }

  /// Wakes every current waiter (in arrival order) and latches.
  void set();

  /// Awaitable: suspends until the event is set.
  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const { return ev.set_; }
      void await_suspend(WaitHandle h) {
        ev.engine_.note_blocked(h, "Event", ev.name_);
        ev.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine& engine_;
  const char* name_;
  bool set_ = false;
  std::deque<WaitHandle> waiters_;
};

class Mutex;

/// RAII ownership of a Mutex acquired via `co_await mutex.scoped()`.
class [[nodiscard]] ScopedLock {
 public:
  ScopedLock() = default;
  explicit ScopedLock(Mutex* m) : mutex_(m) {}
  ScopedLock(ScopedLock&& o) noexcept : mutex_(std::exchange(o.mutex_, nullptr)) {}
  ScopedLock& operator=(ScopedLock&& o) noexcept;
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ~ScopedLock();

  /// Releases the lock early.
  void unlock();

 private:
  Mutex* mutex_ = nullptr;
};

/// FIFO mutex.  `unlock()` hands ownership directly to the oldest waiter, so
/// the lock is never stolen by a task that arrived later.
class Mutex {
 public:
  explicit Mutex(Engine& eng, const char* name = nullptr) : engine_(eng), name_(name) {}

  bool locked() const { return locked_; }
  std::size_t queue_length() const { return waiters_.size(); }

  /// Awaitable acquire; caller must pair with unlock().
  auto lock() {
    struct Awaiter {
      Mutex& m;
      bool await_ready() {
        if (!m.locked_) {
          m.locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(WaitHandle h) {
        m.engine_.note_blocked(h, "Mutex", m.name_);
        m.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable acquire returning an RAII guard.
  auto scoped() {
    struct Awaiter {
      Mutex& m;
      bool await_ready() {
        if (!m.locked_) {
          m.locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(WaitHandle h) {
        m.engine_.note_blocked(h, "Mutex", m.name_);
        m.waiters_.push_back(h);
      }
      ScopedLock await_resume() { return ScopedLock(&m); }
    };
    return Awaiter{*this};
  }

  void unlock();

 private:
  Engine& engine_;
  const char* name_;
  bool locked_ = false;
  std::deque<WaitHandle> waiters_;
};

/// Counting semaphore with FIFO grant order.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::int64_t initial, const char* name = nullptr)
      : engine_(eng), name_(name), count_(initial) {
    SIO_ASSERT(initial >= 0);
  }

  std::int64_t available() const { return count_; }
  std::size_t queue_length() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.count_ > 0) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(WaitHandle h) {
        s.engine_.note_blocked(h, "Semaphore", s.name_);
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release();

 private:
  Engine& engine_;
  const char* name_;
  std::int64_t count_;
  std::deque<WaitHandle> waiters_;
};

/// Cyclic barrier for a fixed party count.  The last arrival releases the
/// whole generation; the barrier is immediately reusable.
class Barrier {
 public:
  Barrier(Engine& eng, int parties, const char* name = nullptr)
      : engine_(eng), name_(name), parties_(parties) {
    SIO_ASSERT(parties > 0);
  }

  int parties() const { return parties_; }
  int arrived() const { return arrived_; }

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() {
        if (b.arrived_ + 1 == b.parties_) {
          b.release_generation();
          return true;  // last arrival does not suspend
        }
        return false;
      }
      void await_suspend(WaitHandle h) {
        b.engine_.note_blocked(h, "Barrier", b.name_);
        ++b.arrived_;
        b.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  const char* name_;
  int parties_;
  int arrived_ = 0;
  std::deque<WaitHandle> waiters_;

  void release_generation();
};

/// Join counter: spawners add(), children done(), a joiner awaits wait().
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng, const char* name = nullptr) : engine_(eng), name_(name) {}

  void add(std::int64_t n = 1) {
    SIO_ASSERT(n >= 0);
    count_ += n;
  }

  void done();

  std::int64_t pending() const { return count_; }

  auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const { return wg.count_ == 0; }
      void await_suspend(WaitHandle h) {
        wg.engine_.note_blocked(h, "WaitGroup", wg.name_);
        wg.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  const char* name_;
  std::int64_t count_ = 0;
  std::deque<WaitHandle> waiters_;
};

/// Unbounded FIFO channel.  push() never blocks; pop() suspends until a value
/// is available.  Values are delivered to poppers in arrival order.
template <class T>
class Channel {
 public:
  explicit Channel(Engine& eng, const char* name = nullptr) : engine_(eng), name_(name) {}

  void push(T value) {
    values_.push_back(std::move(value));
    if (!poppers_.empty()) {
      auto h = poppers_.front();
      poppers_.pop_front();
      engine_.post(h);
    }
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  auto pop() {
    struct Awaiter {
      Channel& ch;
      bool await_ready() const { return !ch.values_.empty(); }
      void await_suspend(WaitHandle h) {
        ch.engine_.note_blocked(h, "Channel", ch.name_);
        ch.poppers_.push_back(h);
      }
      T await_resume() {
        SIO_ASSERT(!ch.values_.empty());
        T v = std::move(ch.values_.front());
        ch.values_.pop_front();
        // If values remain and other poppers are parked, pass the baton.
        if (!ch.values_.empty() && !ch.poppers_.empty()) {
          auto h = ch.poppers_.front();
          ch.poppers_.pop_front();
          ch.engine_.post(h);
        }
        return v;
      }
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  const char* name_;
  std::deque<T> values_;
  std::deque<WaitHandle> poppers_;
};

}  // namespace sio::sim
