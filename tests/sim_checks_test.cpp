// Tests for the sim-sanitizer runtime checks (SIO_SIM_CHECKS): deadlock
// detection with waiter provenance, schedule-in-the-past diagnostics,
// double-resume detection, and the lifetimes of the per-frame check blocks
// that carry the sanitizer state.  Tests of behaviour that SIO_SIM_CHECKS=0
// compiles out skip in that configuration.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstring>
#include <functional>
#include <new>
#include <string>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace sio::sim {
namespace {

#define SKIP_WITHOUT_SIM_CHECKS() \
  if (!SIO_SIM_CHECKS) GTEST_SKIP() << "sim-sanitizer compiled out (SIO_SIM_CHECKS=0)"

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SimCheckError& e) {
    return e.what();
  }
  return "";
}

Task<void> wait_forever(Event& ev) { co_await ev.wait(); }

TEST(SimChecks, DrainedQueueWithLiveTasksIsADeadlock) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Event ev(e);  // never set
  e.spawn(wait_forever(ev));
  EXPECT_THROW(e.run(), DeadlockError);
  // The check is non-fatal: signal the event and the simulation recovers.
  ev.set();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, DeadlockReportCountsStuckTasksAndNamesThePrimitive) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Event ev(e, "never-signaled-condition");
  e.spawn(wait_forever(ev));
  e.spawn(wait_forever(ev));
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2 live task(s)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2x Event(never-signaled-condition)"), std::string::npos) << msg;
  ev.set();
  e.run();
}

Task<void> lock_and_leak(Mutex& m) {
  co_await m.lock();
  // Never unlocks: the next acquirer is stuck forever.  This task itself
  // completes, so it does not count toward the live-task total.
}

Task<void> lock_again(Mutex& m) {
  co_await m.lock();
  m.unlock();
}

TEST(SimChecks, DeadlockReportAggregatesProvenanceAcrossPrimitives) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Mutex m(e, "cpu-queue");
  WaitGroup wg(e, "join");
  wg.add(1);  // no worker will ever call done()
  auto joiner = [](WaitGroup& g) -> Task<void> { co_await g.wait(); };
  e.spawn(lock_and_leak(m));
  e.spawn(lock_again(m));
  e.spawn(joiner(wg));
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("2 live task(s)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("1x Mutex(cpu-queue)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("1x WaitGroup(join)"), std::string::npos) << msg;
  m.unlock();
  wg.done();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, BlockedWaiterBookkeepingClearsOnWake) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Event ev(e);
  e.spawn(wait_forever(ev));
  e.run_until(0);
  EXPECT_EQ(e.blocked_waiters(), 1u);
  ev.set();
  e.run();
  EXPECT_EQ(e.blocked_waiters(), 0u);
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, RunUntilDoesNotReportPendingTasksAsDeadlock) {
  Engine e;
  Event ev(e);
  e.spawn(wait_forever(ev));
  EXPECT_NO_THROW(e.run_until(seconds(10)));
  EXPECT_EQ(e.live_tasks(), 1u);
  ev.set();  // release so the engine drains cleanly
  e.run();
}

TEST(SimChecks, StoppedRunDoesNotReportDeadlock) {
  Engine e;
  Event ev(e);
  e.spawn(wait_forever(ev));
  e.schedule_at(seconds(1), [&] { e.stop(); });
  EXPECT_NO_THROW(e.run());
  ev.set();
  e.run();
}

TEST(SimChecks, ScheduleInThePastThrowsWithBothTimes) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  e.schedule_at(seconds(3), [] {});
  e.run();
  ASSERT_EQ(e.now(), seconds(3));
  const std::string msg = message_of([&] { e.schedule_at(seconds(1), [] {}); });
  EXPECT_NE(msg.find("in the past"), std::string::npos) << msg;
  EXPECT_NE(msg.find(std::to_string(seconds(1))), std::string::npos) << msg;
  EXPECT_NE(msg.find(std::to_string(seconds(3))), std::string::npos) << msg;
}

TEST(SimChecks, ScheduleInThePastIsStillAnAssertionError) {
  // Compatibility: SchedulePastError derives from AssertionError, so code
  // written against the original contract keeps working.
  Engine e;
  e.schedule_at(seconds(2), [&] {
    EXPECT_THROW(e.schedule_at(seconds(1), [] {}), AssertionError);
  });
  e.run();
}

struct CaptureHandle {
  WaitHandle* out;
  bool await_ready() const { return false; }
  void await_suspend(WaitHandle h) { *out = h; }
  void await_resume() const noexcept {}
};

Task<void> capture_self(WaitHandle* out, bool* finished) {
  co_await CaptureHandle{out};
  *finished = true;
}

TEST(SimChecks, DoublePostOfOneHandleIsDetected) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  WaitHandle h;
  bool finished = false;
  e.spawn(capture_self(&h, &finished));
  e.run_until(0);  // parks the task and hands us its handle
  ASSERT_TRUE(h.handle);
  EXPECT_FALSE(finished);
  e.post(h);
  EXPECT_THROW(e.post(h), DoubleResumeError);
  e.run();  // the single queued resume completes the task
  EXPECT_TRUE(finished);
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, RepostAfterResumeIsFine) {
  Engine e;
  WaitHandle h;
  bool finished = false;
  auto twice = [](WaitHandle* out, bool* done) -> Task<void> {
    co_await CaptureHandle{out};
    co_await CaptureHandle{out};
    *done = true;
  };
  e.spawn(twice(&h, &finished));
  e.run_until(0);
  e.post(h);  // first wake
  e.run_until(0);
  e.post(h);  // second wake, after the first actually ran
  EXPECT_NO_THROW(e.run());
  EXPECT_TRUE(finished);
}

Task<void> block_on_channel(Channel<int>& ch, int* got) { *got = co_await ch.pop(); }

TEST(SimChecks, ChannelProvenanceAppearsInDeadlockReport) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Channel<int> ch(e, "work-queue");
  int got = 0;
  e.spawn(block_on_channel(ch, &got));
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("1x Channel(work-queue)"), std::string::npos) << msg;
  ch.push(7);
  e.run();
  EXPECT_EQ(got, 7);
}

TEST(SimChecks, UnnamedPrimitiveReportsItsKind) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Semaphore s(e, 0);
  auto taker = [](Semaphore& sem) -> Task<void> { co_await sem.acquire(); };
  e.spawn(taker(s));
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("1x Semaphore"), std::string::npos) << msg;
  s.release();
  e.run();
}

// ---- per-frame check blocks ----------------------------------------------

// Starts `root` without handing its frame to the engine: the caller keeps
// ownership and decides when the frame is destroyed.
Task<void> start_owned(Engine& e, Task<void> root) {
  auto h = root.release();
  e.post(h);
  return Task<void>(h);
}

TEST(SimChecks, FrameDestroyedWhileParkedLeavesBlockedListAndReport) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Event gone(e, "gone");
  Event stays(e, "stays");
  Task<void> owned = start_owned(e, wait_forever(gone));
  e.spawn(wait_forever(stays));
  e.run_until(0);
  ASSERT_EQ(e.blocked_waiters(), 2u);
  owned = Task<void>();  // destroys the parked frame; `gone` is never set
  EXPECT_EQ(e.blocked_waiters(), 1u);
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("1 live task(s); blocked waiters: 1x Event(stays)"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("gone"), std::string::npos) << msg;
  stays.set();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, FrameOutlivingItsEngineIsDestroyedSafely) {
  SKIP_WITHOUT_SIM_CHECKS();
  // The engine lives in a buffer the test controls, so a write through a
  // dangling blocked-list link after ~Engine would show as a changed byte.
  alignas(Engine) unsigned char storage[sizeof(Engine)];
  Task<void> owned;
  {
    Engine* e = ::new (static_cast<void*>(storage)) Engine;
    Event never(*e, "never");
    owned = start_owned(*e, wait_forever(never));
    e->run_until(0);
    ASSERT_EQ(e->blocked_waiters(), 1u);
    e->~Engine();
  }
  std::memset(storage, 0xA5, sizeof(storage));
  owned = Task<void>();  // the parked frame dies after its engine
  for (unsigned char b : storage) ASSERT_EQ(b, 0xA5);
}

TEST(SimChecks, BlockWakeBurstLeavesNoSanitizerState) {
  SKIP_WITHOUT_SIM_CHECKS();
  // 10 k frames park at once, then all wake; the sanitizer state rides in
  // the frames, so nothing sized by the burst stays with the engine.
  constexpr std::size_t kBurst = 10'000;
  Engine e;
  int woken = 0;
  auto burst = [&] {
    Event ev(e, "burst");
    auto sleeper = [](Event& g, int* n) -> Task<void> {
      co_await g.wait();
      ++*n;
    };
    for (std::size_t i = 0; i < kBurst; ++i) e.spawn(sleeper(ev, &woken));
    e.run_until(e.now());
    const std::size_t parked = e.blocked_waiters();
    ev.set();
    e.run();
    return parked;
  };
#if defined(__GLIBC__)
  const std::size_t first = burst();
  const std::size_t heap_after_first = mallinfo2().uordblks;
  const std::size_t second = burst();
  const std::size_t heap_after_second = mallinfo2().uordblks;
  EXPECT_EQ(heap_after_second, heap_after_first) << "a repeated burst grew the heap";
#else
  const std::size_t first = burst();
  const std::size_t second = burst();
#endif
  EXPECT_EQ(first, kBurst);
  EXPECT_EQ(second, kBurst);
  EXPECT_EQ(woken, static_cast<int>(2 * kBurst));
  EXPECT_EQ(e.blocked_waiters(), 0u);
  EXPECT_EQ(e.live_tasks(), 0u);
}

Task<int> capture_then_return(WaitHandle* out) {
  co_await CaptureHandle{out};
  co_return 7;
}

TEST(SimChecks, DoublePostOfATaskIntFrameIsDetected) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  WaitHandle h;
  int got = 0;
  e.spawn([](WaitHandle* out, int* v) -> Task<void> {
    *v = co_await capture_then_return(out);
  }(&h, &got));
  e.run_until(0);  // the inner Task<int> frame parks and hands us its handle
  ASSERT_TRUE(h.handle);
  e.post(h);
  EXPECT_THROW(e.post(h), DoubleResumeError);
  e.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, WakeOfASleepingFrameIsADoubleResume) {
  SKIP_WITHOUT_SIM_CHECKS();
  // A stale handle kept from an earlier suspension, posted while the frame
  // sleeps in the delay lane.
  Engine e;
  WaitHandle h;
  bool finished = false;
  e.spawn([](Engine& eng, WaitHandle* out, bool* done) -> Task<void> {
    co_await CaptureHandle{out};
    co_await eng.delay(10);
    *done = true;
  }(e, &h, &finished));
  e.run_until(0);
  e.post(h);
  e.run_until(1);  // resumed, now asleep until tick 10
  EXPECT_THROW(e.post(h), DoubleResumeError);
  e.run();
  EXPECT_TRUE(finished);
}

TEST(SimChecks, DeadlockDetachesBlockedFramesAndTheyCanParkAgain) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine e;
  Event first(e, "first");
  Event second(e, "second");
  e.spawn([](Event& a, Event& b) -> Task<void> {
    co_await a.wait();
    co_await b.wait();
  }(first, second));
  EXPECT_THROW(e.run(), DeadlockError);
  EXPECT_EQ(e.blocked_waiters(), 0u);
  first.set();
  const std::string msg = message_of([&] { e.run(); });
  EXPECT_NE(msg.find("1x Event(second)"), std::string::npos) << msg;
  second.set();
  e.run();
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(SimChecks, EachEngineCountsOnlyItsOwnBlockedFrames) {
  SKIP_WITHOUT_SIM_CHECKS();
  Engine a;
  Engine b;
  Semaphore sa(a, 0, "a");
  Semaphore sb(b, 0, "b");
  auto taker = [](Semaphore& s) -> Task<void> { co_await s.acquire(); };
  a.spawn(taker(sa));
  b.spawn(taker(sb));
  b.spawn(taker(sb));
  a.run_until(0);
  b.run_until(0);
  EXPECT_EQ(a.blocked_waiters(), 1u);
  EXPECT_EQ(b.blocked_waiters(), 2u);
  sb.release();
  b.run_until(0);
  EXPECT_EQ(a.blocked_waiters(), 1u);
  EXPECT_EQ(b.blocked_waiters(), 1u);
  sa.release();
  sb.release();
  a.run();
  b.run();
  EXPECT_EQ(a.blocked_waiters() + b.blocked_waiters(), 0u);
}

}  // namespace
}  // namespace sio::sim
