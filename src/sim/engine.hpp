// Deterministic discrete-event simulation engine.
//
// Events live in a hierarchical timing wheel (wheel.hpp): per-tick FIFO
// buckets for the near future, an overflow heap beyond.  Ties in time are
// broken by insertion order, so two events scheduled for the same tick always
// fire in FIFO order — this, plus integer time and a seeded RNG, makes every
// simulation run bit-reproducible.  The wheel replaces the original
// `std::priority_queue<Event>` of boxed `std::function`s; the order contract
// is unchanged and checked against a reference heap by the stress tests.
//
// Coroutine processes (`Task<void>`, see task.hpp) are driven through the
// same store: `spawn()` enqueues the initial resume, awaitables returned by
// `delay()` and by the synchronization primitives enqueue resumes through a
// dedicated lane that stores a `WaitHandle` (callback.hpp) in the event node —
// no closure, no allocation.  The engine is strictly single-threaded.
//
// Sim-sanitizer state lives in the coroutine frames themselves: every
// `Task` promise carries a `detail::FrameCheck`, reached through the typed
// handle a `WaitHandle` is built from, so a check costs a load and a store
// rather than a table lookup keyed by frame address.

#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace sio::sim {

template <class T>
class Task;

namespace detail {

#if SIO_SIM_CHECKS
/// The sim-sanitizer's per-frame check block (`PromiseBase::check`).
/// `pending` is set while a resume of the frame is queued.  A frame parked on
/// a primitive records its block site (`kind`, `name`) and is linked into its
/// engine's circular list of blocked frames until that resume is dispatched.
/// Lifetimes: a frame destroyed while parked unlinks itself; `~Engine`
/// detaches every frame still linked, so a frame that outlives its engine
/// touches nothing when destroyed.
struct FrameCheck {
  FrameCheck* prev = nullptr;  // both null while not linked
  FrameCheck* next = nullptr;
  const char* kind = nullptr;  // block-site primitive type ("Mutex", ...)
  const char* name = nullptr;  // optional user label
  bool pending = false;

  FrameCheck() = default;
  FrameCheck(const FrameCheck&) = delete;
  FrameCheck& operator=(const FrameCheck&) = delete;
  ~FrameCheck() { unlink(); }

  bool linked() const noexcept { return next != nullptr; }

  /// Links this block just before `at` (the list sentinel: at the tail).
  void link_before(FrameCheck& at) noexcept {
    prev = at.prev;
    next = &at;
    at.prev->next = this;
    at.prev = this;
  }

  void unlink() noexcept {
    if (next == nullptr) return;
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};
#endif

}  // namespace detail

/// Decision-point hook for schedule exploration (src/mc).  When installed
/// via Engine::set_scheduler_hook(), the engine stops committing to the
/// (time, insertion-seq) FIFO order within a tick: every event ready at the
/// current tick is batched into an explicit ready set and the hook picks
/// which one dispatches next.  Alternatives are presented in insertion-seq
/// order, so choice 0 at every decision point reproduces the uncontrolled
/// engine order exactly — an all-zeros schedule is the default run.
class SchedulerHook {
 public:
  virtual ~SchedulerHook() = default;

  /// Picks the next event to dispatch among `arity` (>= 2) same-tick
  /// alternatives ordered by insertion seq.  Must return a value < arity.
  /// May throw to abandon the run (the exception escapes Engine::run()).
  virtual std::size_t pick(Tick now, std::size_t arity) = 0;

  /// Called after every dispatched event while the hook is installed, so a
  /// checker can evaluate invariants on each step of the interleaving.  May
  /// throw to abort the run.
  virtual void after_dispatch() {}
};

class Engine {
 public:
#if SIO_SIM_CHECKS
  Engine() { blocked_.prev = blocked_.next = &blocked_; }
  ~Engine() { detach_blocked(); }
#else
  Engine() = default;
#endif
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Tick now() const { return wheel_.now(); }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()).  Any
  /// `void()` callable works; captures up to three words stay allocation-free
  /// (see InlineCallback).
  template <class F>
  void schedule_at(Tick t, F&& fn) {
    check_not_past(t);
    wheel_.emplace(t, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` ticks from now (delay must be >= 0).
  template <class F>
  void schedule_in(Tick delay, F&& fn) {
    schedule_at(now() + delay, std::forward<F>(fn));
  }

  /// Enqueues a coroutine resume at the current time, behind any event
  /// already queued for this tick.  All primitive wake-ups funnel through
  /// here so resumption order is the FIFO order of the wake-up calls.
  void post(WaitHandle w) {
#if SIO_SIM_CHECKS
    mark_pending(w);
#endif
    wheel_.emplace_resume(wheel_.now(), w);
  }

  /// The delay() lane: enqueues a coroutine resume `d` ticks from now.  Like
  /// post(), the wake-up is visible to the sim-sanitizer bookkeeping, so a
  /// stale wake from a primitive while the task sleeps raises
  /// DoubleResumeError instead of corrupting the frame.
  void schedule_resume_in(Tick d, WaitHandle w) {
    SIO_ASSERT(d >= 0);
#if SIO_SIM_CHECKS
    mark_pending(w);
#endif
    wheel_.emplace_resume(wheel_.now() + d, w);
  }

  /// Runs until the event store drains or `stop()` is called.  Rethrows the
  /// first exception that escaped a detached task.
  void run();

  /// Runs until simulated time would exceed `t` (events at exactly `t` run).
  void run_until(Tick t);

  /// Requests `run()` to return after the current event.
  void stop() { stopped_ = true; }

  /// Starts a detached coroutine process.  The engine assumes ownership of
  /// the coroutine frame; it is destroyed when the task completes.
  void spawn(Task<void> task);

  /// Awaitable that suspends the calling task for `d` ticks (d >= 0).
  /// A zero-tick delay still yields through the event queue, which gives
  /// deterministic round-robin interleaving between ready tasks.
  auto delay(Tick d);

  /// Number of events dispatched so far (for tests and microbenchmarks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of spawned tasks that have not yet finished.
  std::uint64_t live_tasks() const { return live_tasks_; }

  /// Installs (or clears, with nullptr) the schedule-exploration hook.  The
  /// hook must outlive every run it controls.  Install before run(); the
  /// hookless dispatch path is untouched when none is set.
  void set_scheduler_hook(SchedulerHook* hook) { hook_ = hook; }
  SchedulerHook* scheduler_hook() const { return hook_; }

  /// Records an exception escaping a detached task; stops the run.
  void report_task_error(std::exception_ptr e);

  /// Called by the final awaiter of a detached task.
  void on_detached_task_done() {
    SIO_ASSERT(live_tasks_ > 0);
    --live_tasks_;
  }

  // ---- sim-sanitizer (SIO_SIM_CHECKS) ----

  /// Records that `w` parked on a synchronization primitive, so a deadlock
  /// report can say *where* tasks are stuck.  `kind` is the primitive type
  /// ("Event", "Mutex", ...); `name` is an optional user label.  The record
  /// is cleared automatically when the frame's resume is dispatched.
  void note_blocked(WaitHandle w, const char* kind, const char* name) {
#if SIO_SIM_CHECKS
    w.check->kind = kind;
    w.check->name = name;
    if (!w.check->linked()) w.check->link_before(blocked_);
#else
    (void)w;
    (void)kind;
    (void)name;
#endif
  }

  /// Number of frames currently parked on synchronization primitives (a walk
  /// of the blocked list: for tests and diagnostics, not the hot path).
  std::size_t blocked_waiters() const;

 private:
  TimingWheel wheel_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t live_tasks_ = 0;
  bool stopped_ = false;
  std::exception_ptr task_error_;
  SchedulerHook* hook_ = nullptr;
  /// Same-tick ready set while a SchedulerHook is installed: events popped
  /// from the wheel but not yet dispatched, in insertion-seq order.  Always
  /// drained before the clock may advance.  Unused on the hookless path.
  std::vector<EventNode*> ready_;

#if SIO_SIM_CHECKS
  // Sentinel of the circular list of blocked frames.  Never iterated on a
  // path that affects simulation results: the deadlock report aggregates
  // into a sorted map before printing.
  detail::FrameCheck blocked_;

  static void mark_pending(WaitHandle w) {
    if (w.check->pending) throw_double_resume();
    w.check->pending = true;
  }

  /// Unlinks every blocked frame, leaving the list empty.
  void detach_blocked() noexcept;
#endif

  void check_not_past(Tick t) {
#if SIO_SIM_CHECKS
    if (t < now()) throw_schedule_past(t);
#else
    SIO_ASSERT(t >= now());
#endif
  }

  void dispatch(EventNode* n);
  void run_loop(Tick limit);
  void check_drained();
  [[noreturn]] void throw_deadlock();
  [[noreturn]] void throw_schedule_past(Tick t);
  [[noreturn]] static void throw_double_resume();
};

namespace detail {

/// Awaitable returned by Engine::delay().  The wake-up travels through the
/// engine's resume lane (a WaitHandle in the event node), not a boxed lambda,
/// so it is both allocation-free and visible to SIO_SIM_CHECKS.
struct DelayAwaiter {
  Engine& engine;
  Tick dur;

  bool await_ready() const noexcept { return false; }
  void await_suspend(WaitHandle h) { engine.schedule_resume_in(dur, h); }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto Engine::delay(Tick d) { return detail::DelayAwaiter{*this, d}; }

}  // namespace sio::sim
