// Tests for the coroutine frame pool: warm simulation recycles every frame,
// oversized frames pass straight through, frames of parked chains return to
// the pool when their owners destroy them, and frames cross threads safely
// under core::ParallelRunner.

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/parallel.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace sio::sim {
namespace {

// Padding that stays live across a suspension point, so it lives in the
// frame: each N gives the coroutines below a different frame size.
template <std::size_t N>
Task<int> leaf(Engine& e, int v, Tick d = 1) {
  std::array<unsigned char, N> pad{};
  pad[static_cast<std::size_t>(v) % N] = 1;
  co_await e.delay(d);
  co_return v + pad[static_cast<std::size_t>(v) % N];
}

template <std::size_t N>
Task<int> middle(Engine& e, Mutex& m, int v) {
  std::array<unsigned char, N> pad{};
  pad[0] = static_cast<unsigned char>(v);
  int sum = 0;
  {
    auto g = co_await m.scoped();
    sum += co_await leaf<N / 2 + 8>(e, v);
  }
  sum += co_await leaf<N + 40>(e, v + 1);
  co_return sum + pad[0] - v;
}

Task<void> top(Engine& e, Mutex& m, int v, std::int64_t* out) {
  std::array<unsigned char, 200> pad{};
  pad[1] = 1;
  const int a = co_await middle<64>(e, m, v);
  const int b = co_await middle<400>(e, m, v + 2);
  co_await e.delay(pad[1]);
  *out += a + b;
}

// One simulation: eight depth-3 chains contending on a mutex.
std::int64_t run_chains(Engine& e) {
  Mutex m(e);
  std::int64_t sum = 0;
  for (int i = 0; i < 8; ++i) e.spawn(top(e, m, i, &sum));
  e.run();
  return sum;
}

// leaf(v) = v + 1, middle(v) = 2v + 3, top(v) adds 4v + 10.
constexpr std::int64_t kChainSum = 8 * 10 + 4 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);

TEST(FramePool, WarmChainsMakeNoUpstreamAllocations) {
  if (FramePool::kPassThrough) GTEST_SKIP() << "frame pool is a pass-through under ASan";
  {
    Engine warm;
    EXPECT_EQ(run_chains(warm), kChainSum);
  }
  const std::uint64_t before = FramePool::upstream_allocations();
  for (int round = 0; round < 3; ++round) {
    Engine e;
    EXPECT_EQ(run_chains(e), kChainSum);
  }
  EXPECT_EQ(FramePool::upstream_allocations(), before);
}

template <std::size_t N>
Task<void> big(Engine& e, int* done) {
  std::array<unsigned char, N> pad{};
  pad[N - 1] = 1;
  co_await e.delay(1);
  *done += pad[N - 1];
}

TEST(FramePool, FramesAboveTheLargestClassPassThrough) {
  int done = 0;
  {
    Engine warm;
    warm.spawn(big<2 * FramePool::kMaxPooledBytes>(warm, &done));
    warm.run();
  }
  const std::uint64_t before = FramePool::upstream_allocations();
  Engine e;
  for (int i = 0; i < 5; ++i) e.spawn(big<2 * FramePool::kMaxPooledBytes>(e, &done));
  e.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(FramePool::upstream_allocations() - before, 5u);
}

// The middle of a depth-3 chain (root, nap, leaf): 2v + 3 after sleeping
// `d` ticks at the bottom.
Task<int> nap(Engine& e, int v, Tick d) {
  std::array<unsigned char, 120> pad{};
  pad[2] = 1;
  int sum = co_await leaf<100>(e, v);
  sum += co_await leaf<600>(e, v, d);
  co_return sum + pad[2];
}

// Chains that park for good: on an event nobody sets, and mid-chain on a
// delay past the run horizon.  The test owns the roots, so it can destroy
// them (and, through their awaited child tasks, the whole chain) after the
// engine is gone.
std::uint64_t park_and_tear_down() {
  std::vector<Task<void>> roots;
  std::int64_t sink = 0;
  {
    Engine e;
    Event never(e);
    auto waits = [](Engine& eng, Event& ev, int v, std::int64_t* out) -> Task<void> {
      *out += co_await nap(eng, v, 1);
      co_await ev.wait();
    };
    auto sleeps = [](Engine& eng, int v, std::int64_t* out) -> Task<void> {
      *out += co_await nap(eng, v, 1000);
    };
    for (int i = 0; i < 4; ++i) {
      roots.push_back(waits(e, never, i, &sink));
      roots.push_back(sleeps(e, i, &sink));
    }
    std::vector<std::coroutine_handle<Task<void>::promise_type>> started;
    for (auto& r : roots) started.push_back(r.release());
    roots.clear();
    for (auto h : started) {
      roots.emplace_back(h);
      e.post(h);
    }
    e.run_until(10);
    EXPECT_EQ(sink, 4 * 3 + 2 * (0 + 1 + 2 + 3));  // only the waiters' naps finished
  }
  roots.clear();
  return FramePool::upstream_allocations();
}

TEST(FramePool, DestroyingParkedChainsAfterEngineTeardownReturnsFrames) {
  if (FramePool::kPassThrough) GTEST_SKIP() << "frame pool is a pass-through under ASan";
  const std::uint64_t first = park_and_tear_down();
  EXPECT_EQ(park_and_tear_down(), first);
}

// One job's simulation.  Its root tasks are created on the thread that
// builds the jobs, so their frames are allocated there and freed on whichever
// worker runs the job.
struct Sim {
  Engine e;
  Mutex m{e};
  std::int64_t sum = 0;
  std::vector<Task<void>> roots;
};

struct Outcome {
  std::vector<std::uint64_t> events;
  std::vector<std::int64_t> sums;
};

Outcome run_jobs(unsigned threads) {
  std::vector<std::unique_ptr<Sim>> sims;
  std::vector<std::function<std::uint64_t()>> jobs;
  for (int j = 0; j < 8; ++j) {
    auto sim = std::make_unique<Sim>();
    for (int i = 0; i < 8; ++i) sim->roots.push_back(top(sim->e, sim->m, i + j, &sim->sum));
    Sim* s = sim.get();
    jobs.push_back([s] {
      for (auto& r : s->roots) s->e.spawn(std::move(r));
      s->e.run();
      s->sum += run_chains(s->e);  // frames allocated on the worker
      return s->e.events_processed();
    });
    sims.push_back(std::move(sim));
  }
  Outcome out;
  out.events = core::ParallelRunner(threads).run<std::uint64_t>(jobs);
  for (const auto& s : sims) out.sums.push_back(s->sum);
  return out;
}

TEST(FramePool, ParallelRunnerJobsMatchSerialRun) {
  const Outcome serial = run_jobs(1);
  const Outcome parallel = run_jobs(4);
  EXPECT_EQ(parallel.events, serial.events);
  EXPECT_EQ(parallel.sums, serial.sums);
  EXPECT_GT(serial.events.front(), 0u);
}

}  // namespace
}  // namespace sio::sim
