#include "sim/engine.hpp"

#include <map>
#include <string>
#include <utility>

#include "sim/task.hpp"

namespace sio::sim {

std::size_t Engine::blocked_waiters() const {
  std::size_t n = 0;
#if SIO_SIM_CHECKS
  for (const detail::FrameCheck* c = blocked_.next; c != &blocked_; c = c->next) ++n;
#endif
  return n;
}

#if SIO_SIM_CHECKS
void Engine::detach_blocked() noexcept {
  detail::FrameCheck* c = blocked_.next;
  while (c != &blocked_) {
    detail::FrameCheck* next = c->next;
    c->prev = c->next = nullptr;
    c = next;
  }
  blocked_.prev = blocked_.next = &blocked_;
}
#endif

void Engine::report_task_error(std::exception_ptr e) {
  if (!task_error_) task_error_ = e;
  stopped_ = true;
}

void Engine::dispatch(EventNode* n) {
  ++events_processed_;
  if (n->cb.is_resume()) {
    // Resume lane: copy the wake-up out, recycle the node, then clear the
    // frame's check block before handing control to the coroutine (which
    // may immediately park or get woken again).
    const WaitHandle w = n->cb.waiter();
    wheel_.release_resume(n);
#if SIO_SIM_CHECKS
    w.check->pending = false;
    w.check->unlink();
#endif
    w.handle.resume();
  } else {
    // The callable lives inside the node: invoke first, release after.  The
    // guard keeps the node off the freelist while its callback runs (the
    // callback may schedule new events) and recycles it even on throw.
    struct Guard {
      TimingWheel& wheel;
      EventNode* node;
      ~Guard() { wheel.release(node); }
    } guard{wheel_, n};
    n->cb.invoke();
  }
}

void Engine::throw_schedule_past(Tick t) {
  throw SchedulePastError("sim-check: schedule_at(t=" + std::to_string(t) +
                          ") is in the past (now=" + std::to_string(now()) + ")");
}

void Engine::throw_double_resume() {
  throw DoubleResumeError("sim-check: coroutine handle posted for resumption twice "
                          "(a primitive woke the same waiter again before it ran)");
}

void Engine::throw_deadlock() {
#if SIO_SIM_CHECKS
  // Aggregate waiter provenance into a sorted map so the message is
  // deterministic (frame addresses are not).
  std::map<std::string, int> sites;
  for (const detail::FrameCheck* c = blocked_.next; c != &blocked_; c = c->next) {
    std::string label = c->kind;
    if (c->name != nullptr) label += std::string("(") + c->name + ")";
    ++sites[label];
  }
  std::string msg = "sim-check: deadlock: event queue drained with " +
                    std::to_string(live_tasks_) + " live task(s)";
  if (sites.empty()) {
    msg += "; no registered wait sites (task suspended outside the sync primitives?)";
  } else {
    msg += "; blocked waiters:";
    for (const auto& [label, count] : sites) {
      msg += ' ';
      msg += std::to_string(count);
      msg += "x ";
      msg += label;
    }
  }
  detach_blocked();
  throw DeadlockError(msg);
#else
  throw DeadlockError("sim-check: deadlock");
#endif
}

void Engine::check_drained() {
#if SIO_SIM_CHECKS
  if (!stopped_ && wheel_.empty() && ready_.empty() && live_tasks_ > 0) throw_deadlock();
#endif
}

void Engine::run_loop(Tick limit) {
  stopped_ = false;
  if (hook_ == nullptr) {
    while (!stopped_) {
      EventNode* n = wheel_.pop_next(limit);
      if (n == nullptr) break;
      dispatch(n);
    }
    return;
  }
  // Controlled dispatch: batch every event ready at the current tick into
  // `ready_` (the wheel yields them in insertion-seq order) and let the hook
  // pick.  Events a dispatch schedules at the *same* tick join the ready set
  // on the next iteration, so they are alternatives too — a real concurrent
  // system orders them freely.  The clock only advances once the tick's
  // ready set is drained.
  while (!stopped_) {
    if (ready_.empty()) {
      EventNode* n = wheel_.pop_next(limit);
      if (n == nullptr) break;
      ready_.push_back(n);
    }
    while (EventNode* m = wheel_.pop_next(now())) ready_.push_back(m);
    std::size_t k = 0;
    if (ready_.size() > 1) {
      k = hook_->pick(now(), ready_.size());
      SIO_ASSERT(k < ready_.size());
    }
    EventNode* n = ready_[k];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(k));
    dispatch(n);
    hook_->after_dispatch();
  }
}

void Engine::run() {
  run_loop(kMaxTick);
  if (task_error_) {
    auto err = std::exchange(task_error_, nullptr);
    std::rethrow_exception(err);
  }
  check_drained();
}

void Engine::run_until(Tick t) {
  run_loop(t);
  wheel_.advance_clock(t);
  if (task_error_) {
    auto err = std::exchange(task_error_, nullptr);
    std::rethrow_exception(err);
  }
  // No deadlock check here: a time-bounded run legitimately leaves tasks
  // parked for events beyond the horizon.
}

}  // namespace sio::sim
