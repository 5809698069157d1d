// Tests for the deadline timer (`sim::Timeout`) and the timeout-race
// composition (`sim::with_timeout`): expiry vs. cancellation, FIFO waiter
// wake-up, abandoned-task semantics, and sanitizer provenance.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/timeout.hpp"

namespace sio::sim {
namespace {

TEST(Timeout, ExpiresAtTheDeadline) {
  Engine e;
  Timeout t(e, "expiry");
  t.arm(milliseconds(5));
  std::vector<sim::Tick> woke;
  WaitStatus status = WaitStatus::kCompleted;
  e.spawn([](Engine& eng, Timeout& tm, std::vector<Tick>* w, WaitStatus* s) -> Task<void> {
    *s = co_await tm.wait();
    w->push_back(eng.now());
  }(e, t, &woke, &status));
  e.run();
  ASSERT_EQ(woke.size(), 1u);
  EXPECT_EQ(woke[0], milliseconds(5));
  EXPECT_EQ(status, WaitStatus::kTimedOut);
  EXPECT_TRUE(t.expired());
}

TEST(Timeout, CancelBeatsExpiryAndWakesImmediately) {
  Engine e;
  Timeout t(e);
  t.arm(seconds(10));
  WaitStatus status = WaitStatus::kTimedOut;
  e.spawn([](Timeout& tm, WaitStatus* s) -> Task<void> { *s = co_await tm.wait(); }(t, &status));
  e.schedule_at(milliseconds(1), [&t] { t.cancel(); });
  e.run();
  EXPECT_EQ(status, WaitStatus::kCompleted);
  EXPECT_FALSE(t.expired());
  EXPECT_TRUE(t.settled());
  // The stale expiry event still fires at t=10s but settles nothing.
  EXPECT_EQ(e.now(), seconds(10));
}

TEST(Timeout, WaitAfterSettlingCompletesImmediately) {
  Engine e;
  Timeout t(e);
  t.arm(0);
  std::vector<WaitStatus> seen;
  e.schedule_at(milliseconds(1), [&] {
    e.spawn([](Timeout& tm, std::vector<WaitStatus>* out) -> Task<void> {
      out->push_back(co_await tm.wait());
    }(t, &seen));
  });
  e.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], WaitStatus::kTimedOut);
}

TEST(Timeout, CancelIsIdempotentAndDoubleArmAsserts) {
  Engine e;
  Timeout t(e);
  t.cancel();
  t.cancel();  // idempotent
  EXPECT_TRUE(t.settled());
  Timeout armed(e);
  armed.arm(seconds(1));
  EXPECT_THROW(armed.arm(seconds(1)), AssertionError);
  armed.cancel();
  e.run();
}

TEST(Timeout, MultipleWaitersWakeInFifoOrder) {
  Engine e;
  Timeout t(e, "fifo");
  t.arm(milliseconds(2));
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Timeout& tm, std::vector<int>* out, int id) -> Task<void> {
      co_await tm.wait();
      out->push_back(id);
    }(t, &order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Timeout, BlockedWaiterHasSanitizerProvenance) {
  if (!SIO_SIM_CHECKS) GTEST_SKIP() << "sim-sanitizer compiled out (SIO_SIM_CHECKS=0)";
  Engine e;
  Timeout t(e, "provenance");
  t.arm(milliseconds(1));
  e.spawn([](Timeout& tm) -> Task<void> { co_await tm.wait(); }(t));
  bool checked = false;
  e.schedule_at(microseconds(500), [&] {
    checked = true;
    EXPECT_EQ(e.blocked_waiters(), 1u);
  });
  e.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(e.blocked_waiters(), 0u);
}

Task<void> sleep_for(Engine& e, Tick d) { co_await e.delay(d); }

TEST(WithTimeout, FastTaskCompletes) {
  Engine e;
  WaitStatus status = WaitStatus::kTimedOut;
  e.spawn([](Engine& eng, WaitStatus* s) -> Task<void> {
    *s = co_await with_timeout(eng, sleep_for(eng, milliseconds(1)), seconds(1), "fast");
  }(e, &status));
  e.run();
  EXPECT_EQ(status, WaitStatus::kCompleted);
}

TEST(WithTimeout, SlowTaskTimesOutAtTheDeadline) {
  Engine e;
  WaitStatus status = WaitStatus::kCompleted;
  Tick decided = 0;
  e.spawn([](Engine& eng, WaitStatus* s, Tick* at) -> Task<void> {
    *s = co_await with_timeout(eng, sleep_for(eng, seconds(3)), milliseconds(10), "slow");
    *at = eng.now();
  }(e, &status, &decided));
  e.run();
  EXPECT_EQ(status, WaitStatus::kTimedOut);
  EXPECT_EQ(decided, milliseconds(10));
  // The abandoned task ran to completion in the background.
  EXPECT_EQ(e.now(), seconds(3));
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(WithTimeout, AbandonedTaskEffectsStillHappen) {
  Engine e;
  bool side_effect = false;
  auto slow_effect = [](Engine& eng, bool* flag) -> Task<void> {
    co_await eng.delay(seconds(1));
    *flag = true;
  };
  e.spawn([](Engine& eng, Task<void> inner) -> Task<void> {
    const WaitStatus s = co_await with_timeout(eng, std::move(inner), milliseconds(1));
    EXPECT_EQ(s, WaitStatus::kTimedOut);
  }(e, slow_effect(e, &side_effect)));
  e.run();
  EXPECT_TRUE(side_effect);  // RPC landed after the caller gave up
}

Task<int> produce_after(Engine& e, Tick d, int v) {
  co_await e.delay(d);
  co_return v;
}

TEST(WithTimeout, ValueVariantDeliversTheResult) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<void> {
    const auto r = co_await with_timeout(eng, produce_after(eng, milliseconds(1), 42), seconds(1));
    EXPECT_EQ(r.status, WaitStatus::kCompleted);
    EXPECT_TRUE(r.value.has_value());
    EXPECT_EQ(r.value.value_or(-1), 42);
  }(e));
  e.run();
}

TEST(WithTimeout, ValueVariantDiscardsLateResults) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<void> {
    const auto r = co_await with_timeout(eng, produce_after(eng, seconds(2), 7), milliseconds(1));
    EXPECT_TRUE(r.timed_out());
    EXPECT_FALSE(r.value.has_value());
  }(e));
  e.run();
}

TEST(WithTimeout, ZeroDeadlineStillLetsAnInstantTaskWin) {
  // Both the expiry and the task start are queued for the current tick; the
  // expiry was scheduled first, so it wins deterministically.
  Engine e;
  e.spawn([](Engine& eng) -> Task<void> {
    auto instant = []() -> Task<void> { co_return; }();
    const WaitStatus s = co_await with_timeout(eng, std::move(instant), 0);
    EXPECT_EQ(s, WaitStatus::kTimedOut);
  }(e));
  e.run();
}

TEST(WithTimeout, TwoRacesInterleaveDeterministically) {
  Engine e;
  std::vector<int> done;
  e.spawn([](Engine& eng, std::vector<int>* out) -> Task<void> {
    const WaitStatus s = co_await with_timeout(eng, sleep_for(eng, milliseconds(2)), seconds(1));
    EXPECT_EQ(s, WaitStatus::kCompleted);
    out->push_back(1);
  }(e, &done));
  e.spawn([](Engine& eng, std::vector<int>* out) -> Task<void> {
    const WaitStatus s = co_await with_timeout(eng, sleep_for(eng, seconds(1)), milliseconds(2));
    EXPECT_EQ(s, WaitStatus::kTimedOut);
    out->push_back(2);
  }(e, &done));
  e.run();
  // Both races decide at t=2ms; race 2's expiry event was queued before race
  // 1's delay resume, so its waiter is posted (and resumes) first.
  EXPECT_EQ(done, (std::vector<int>{2, 1}));
}

TEST(Timeout, ZeroLengthDeadlineArmedMidRunExpiresOnTheArmingTick) {
  Engine e;
  Timeout t(e, "zero-mid-run");
  Tick woke_at = -1;
  WaitStatus status = WaitStatus::kCompleted;
  e.schedule_at(milliseconds(3), [&] {
    t.arm(0);
    e.spawn([](Engine& eng, Timeout& tm, Tick* at, WaitStatus* s) -> Task<void> {
      *s = co_await tm.wait();
      *at = eng.now();
    }(e, t, &woke_at, &status));
  });
  e.run();
  EXPECT_EQ(status, WaitStatus::kTimedOut);
  EXPECT_EQ(woke_at, milliseconds(3));  // same tick, no time passes
  EXPECT_TRUE(t.expired());
}

TEST(WithTimeout, SameTickExpiryBeatsSameTickCompletion) {
  // The inner task finishes on exactly the deadline tick.  The expiry event
  // was scheduled when the race was set up — before the inner task's delay
  // resume — so the timeout wins, every run, by event-queue order alone.
  Engine e;
  WaitStatus status = WaitStatus::kCompleted;
  e.spawn([](Engine& eng, WaitStatus* s) -> Task<void> {
    *s = co_await with_timeout(eng, sleep_for(eng, milliseconds(4)), milliseconds(4), "photo");
  }(e, &status));
  e.run();
  EXPECT_EQ(status, WaitStatus::kTimedOut);
  EXPECT_EQ(e.now(), milliseconds(4));
  EXPECT_EQ(e.live_tasks(), 0u);
}

TEST(WithTimeout, SameTickValueIsDiscardedWithTheRace) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<void> {
    const auto r =
        co_await with_timeout(eng, produce_after(eng, milliseconds(4), 9), milliseconds(4));
    EXPECT_TRUE(r.timed_out());
    EXPECT_FALSE(r.value.has_value());  // value landed on the losing tick
  }(e));
  e.run();
}

TEST(WithTimeout, PooledRunsMatchSerialRunsByteForByte) {
  // The experiment layer fans timeout-heavy runs across a thread pool; each
  // job owns a private engine, so the pool may only change wall-clock time.
  // Fingerprint every run (statuses + final tick + event count) and compare.
  auto one_run = [](int salt) -> std::string {
    Engine e;
    std::string fp;
    for (int i = 0; i < 6; ++i) {
      // Alternate winners: even races complete, odd races time out.
      const Tick task_d = milliseconds(1 + ((i + salt) % 3));
      const Tick deadline = (i % 2 == 0) ? task_d + milliseconds(1) : task_d - microseconds(500);
      e.spawn([](Engine& eng, Tick td, Tick dl, std::string* out) -> Task<void> {
        const WaitStatus s = co_await with_timeout(eng, sleep_for(eng, td), dl, "pooled");
        *out += (s == WaitStatus::kCompleted ? 'c' : 't');
      }(e, task_d, deadline, &fp));
    }
    e.run();
    fp += ':' + std::to_string(e.now()) + ':' + std::to_string(e.events_processed());
    return fp;
  };
  std::vector<std::function<std::string()>> jobs;
  for (int salt = 0; salt < 12; ++salt) {
    jobs.push_back([one_run, salt] { return one_run(salt); });
  }
  const auto serial = core::ParallelRunner(1).run<std::string>(jobs);
  const auto pooled = core::ParallelRunner(8).run<std::string>(jobs);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << "job " << i << " diverged under the pool";
  }
}

}  // namespace
}  // namespace sio::sim
