// Tests for the timing-wheel event store and the InlineCallback it dispatches.
//
// The centerpiece is a million-event stress run checked against a reference
// (time, seq) priority queue — the exact structure the old engine used — over
// a mixed workload of zero-tick, same-slot, cross-level, and far-future
// (overflow heap) delays, with a fraction of events scheduled from inside
// firing callbacks.  The wheel must reproduce the reference firing order
// id-for-id.

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/callback.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace {

using sio::sim::InlineCallback;
using sio::sim::kMaxTick;
using sio::sim::Tick;
using sio::sim::TimingWheel;

// ---- schedulers under a common driver interface ---------------------------

/// The old engine's event store, kept as the ordering oracle: a binary heap
/// over (time, insertion-seq).
class RefHeap {
 public:
  Tick now() const { return now_; }
  std::size_t size() const { return q_.size(); }

  void schedule(Tick at, std::uint64_t id) { q_.push({at, seq_++, id}); }

  /// Pops the earliest event with at <= limit, advancing the clock to it.
  bool pop(Tick limit, std::uint64_t& id) {
    if (q_.empty() || q_.top().at > limit) return false;
    now_ = q_.top().at;
    id = q_.top().id;
    q_.pop();
    return true;
  }

 private:
  struct Ev {
    Tick at;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Ev, std::vector<Ev>, Later> q_;
};

/// The timing wheel behind the same interface.  Callbacks capture
/// {this, id} — two words, so they ride the inline (no-heap) path.
class WheelSched {
 public:
  Tick now() const { return w_.now(); }
  std::size_t size() const { return w_.size(); }

  void schedule(Tick at, std::uint64_t id) {
    w_.emplace(at, [this, id] { fired_id_ = id; });
  }

  bool pop(Tick limit, std::uint64_t& id) {
    sio::sim::EventNode* n = w_.pop_next(limit);
    if (n == nullptr) return false;
    n->cb.invoke();
    id = fired_id_;
    w_.release(n);
    return true;
  }

 private:
  TimingWheel w_;
  std::uint64_t fired_id_ = 0;
};

/// Runs the stress workload against a scheduler and returns the firing order.
/// All decisions (delays, burst sizes, child scheduling) come from a seeded
/// Rng consumed in firing order, so two correct schedulers produce identical
/// draws and the returned id sequences are comparable element-for-element.
template <class Sched>
std::vector<std::uint64_t> run_stress(std::size_t total, std::uint64_t seed) {
  Sched s;
  sio::sim::Rng rng(seed);
  std::vector<std::uint64_t> fired;
  fired.reserve(total);
  std::uint64_t next_id = 0;
  std::size_t seeded = 0;

  // Delay mix: zero-tick, level-0, level-1/2, and overflow-heap territory.
  auto push_one = [&] {
    const std::int64_t r = rng.uniform_int(0, 99);
    Tick d;
    if (r < 15) {
      d = 0;
    } else if (r < 55) {
      d = rng.uniform_int(1, 2047);
    } else if (r < 80) {
      d = rng.uniform_int(2048, std::int64_t{1} << 22);
    } else if (r < 95) {
      d = rng.uniform_int((std::int64_t{1} << 22) + 1, std::int64_t{1} << 33);
    } else {
      d = (std::int64_t{1} << 33) + rng.uniform_int(0, std::int64_t{1} << 20);
    }
    s.schedule(s.now() + d, next_id++);
    ++seeded;
  };

  while (fired.size() < total) {
    while (seeded < total && s.size() < 512) push_one();
    const std::int64_t burst = rng.uniform_int(1, 64);
    for (std::int64_t i = 0; i < burst; ++i) {
      std::uint64_t id;
      if (!s.pop(kMaxTick, id)) break;
      fired.push_back(id);
      // Some events trigger follow-up scheduling at the just-advanced clock —
      // the regime the aligned-window insertion rule protects.
      if (seeded < total + total / 8 && rng.uniform_int(0, 7) == 0) push_one();
    }
  }
  return fired;
}

TEST(TimingWheelStress, MillionEventsMatchReferenceHeap) {
  constexpr std::size_t kTotal = 1'000'000;
  const auto wheel = run_stress<WheelSched>(kTotal, 0x510);
  const auto ref = run_stress<RefHeap>(kTotal, 0x510);
  ASSERT_EQ(wheel.size(), ref.size());
  // EXPECT_EQ on the vectors would print megabytes on failure; find the first
  // divergence instead.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(wheel[i], ref[i]) << "first divergence at firing #" << i;
  }
}

// ---- targeted wheel behaviors ---------------------------------------------

TEST(TimingWheel, SameTickEventsFireInInsertionOrder) {
  WheelSched s;
  for (std::uint64_t i = 0; i < 100; ++i) s.schedule(42, i);
  std::uint64_t id;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.pop(kMaxTick, id));
    EXPECT_EQ(id, i);
  }
  EXPECT_FALSE(s.pop(kMaxTick, id));
  EXPECT_EQ(s.now(), 42);
}

TEST(TimingWheel, FarFutureOverflowInterleavesWithNearEvents) {
  // Events beyond the wheel's 2^33-tick span live in the overflow heap and
  // must still fire in global (time, seq) order once the clock reaches them.
  WheelSched s;
  const Tick far = Tick{1} << 40;
  s.schedule(far + 5, 0);
  s.schedule(3, 1);
  s.schedule(far + 5, 2);  // same far tick: seq order with id 0
  s.schedule(far + 1, 3);
  s.schedule(7, 4);
  std::vector<std::uint64_t> fired;
  std::uint64_t id;
  while (s.pop(kMaxTick, id)) fired.push_back(id);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 4, 3, 0, 2}));
  EXPECT_EQ(s.now(), far + 5);
}

TEST(TimingWheel, PopRespectsLimitAndAdvanceClockJumps) {
  // run_until-style use: pop up to a limit, then jump the clock to the limit
  // (possibly across alignment blocks) and keep going.
  TimingWheel w;
  std::vector<int> fired;
  const Tick block = Tick{1} << 22;  // one level-2 slot span
  w.emplace(5, [&fired] { fired.push_back(5); });
  w.emplace(3 * block + 1, [&fired] { fired.push_back(1); });
  w.emplace(3 * block + 9, [&fired] { fired.push_back(9); });

  EXPECT_EQ(w.pop_next(2), nullptr);  // limit before first event
  w.advance_clock(2);
  sio::sim::EventNode* n = w.pop_next(block);
  ASSERT_NE(n, nullptr);
  n->cb.invoke();
  w.release(n);
  EXPECT_EQ(w.pop_next(block), nullptr);
  w.advance_clock(block);  // clock enters a new level-1 block between events

  while ((n = w.pop_next(4 * block)) != nullptr) {
    n->cb.invoke();
    w.release(n);
  }
  EXPECT_EQ(fired, (std::vector<int>{5, 1, 9}));
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, ChildScheduledAtNowFiresAfterSameTickSiblings) {
  TimingWheel w;
  std::vector<int> fired;
  w.emplace(10, [&w, &fired] {
    fired.push_back(0);
    // Scheduled mid-dispatch at the current tick: lower priority than every
    // event already queued for tick 10, by seq order.
    w.emplace(w.now(), [&fired] { fired.push_back(99); });
  });
  w.emplace(10, [&fired] { fired.push_back(1); });
  w.emplace(10, [&fired] { fired.push_back(2); });
  sio::sim::EventNode* n;
  while ((n = w.pop_next(kMaxTick)) != nullptr) {
    n->cb.invoke();
    w.release(n);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 99}));
}

TEST(TimingWheel, Level0Slot2047IsTheLastDirectSlot) {
  // diff 0..2047 lands in level 0; diff 2048 is the first level-1 residency.
  // The boundary pair must still fire in time order, and a tie at the
  // boundary tick in insertion order.
  WheelSched s;
  s.schedule(2048, 0);  // level 1
  s.schedule(2047, 1);  // last level-0 slot
  s.schedule(2047, 2);  // same slot, later seq
  s.schedule(2046, 3);
  std::vector<std::uint64_t> fired;
  std::uint64_t id;
  while (s.pop(kMaxTick, id)) fired.push_back(id);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3, 1, 2, 0}));
}

TEST(TimingWheel, OverflowHeapThresholdIsExactlyTwoPow33) {
  // The wheel's three 2048-slot levels span diffs up to 2^33 - 1; a diff of
  // exactly 2^33 must take the overflow heap.  Both sides of the threshold,
  // scheduled heap-side first, still fire in (time, seq) order.
  const Tick edge = Tick{1} << 33;
  WheelSched s;
  s.schedule(edge, 0);      // heap (diff >> 33 == 1)
  s.schedule(edge - 1, 1);  // wheel resident (last level-2 reach)
  s.schedule(edge, 2);      // heap, same tick as id 0: seq order
  std::vector<std::uint64_t> fired;
  std::uint64_t id;
  while (s.pop(kMaxTick, id)) fired.push_back(id);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 0, 2}));
  EXPECT_EQ(s.now(), edge);
}

TEST(TimingWheel, HeapDrainsIntoWheelAsTheClockCatchesUp) {
  // An overflow-heap event whose diff shrinks below 2^33 after the clock
  // advances must demote into the wheel and interleave correctly with
  // events scheduled wheel-side at nearby ticks.
  const Tick far = (Tick{1} << 33) + 100;
  WheelSched s;
  s.schedule(far, 0);  // heap at schedule time
  s.schedule(10, 1);
  std::uint64_t id;
  ASSERT_TRUE(s.pop(kMaxTick, id));
  EXPECT_EQ(id, 1);
  // now == 10: `far` is within wheel reach.  Newer same-tick and
  // earlier-tick events must order against the drained one by (time, seq).
  s.schedule(far, 2);      // same tick, later seq than the heap resident
  s.schedule(far - 1, 3);  // earlier tick, scheduled last
  std::vector<std::uint64_t> fired;
  while (s.pop(kMaxTick, id)) fired.push_back(id);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3, 0, 2}));
  EXPECT_EQ(s.now(), far);
}

TEST(TimingWheel, NodesAreRecycledThroughTheFreelist) {
  // Steady-state schedule/dispatch churn must not grow the arena: after the
  // first dispatch returns a node, subsequent single-event cycles reuse it.
  TimingWheel w;
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    w.emplace(w.now() + 1, [&hits] { ++hits; });
    sio::sim::EventNode* n = w.pop_next(kMaxTick);
    ASSERT_NE(n, nullptr);
    n->cb.invoke();
    w.release(n);
  }
  EXPECT_EQ(hits, 10'000);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.now(), 10'000);
}

// Ticks in the first and last bitmap word (0 and 31) of every level, plus
// the overflow heap.
constexpr Tick kWordEdgeTicks[] = {
    3,       63,                                                // level 0, word 0
    64 * 31 + 7, 2047,                                          // level 0, word 31
    (Tick{1} << 11) * 5 + 9,  (Tick{1} << 11) * 2047 + 1,       // level 1, words 0 and 31
    (Tick{1} << 22) * 3 + 2,  (Tick{1} << 22) * 2047 + 11,      // level 2, words 0 and 31
    (Tick{1} << 33) + 4,                                        // overflow heap
};

/// Fires the word-edge events; each of the first firings schedules two
/// follow-ups, in word 31 of the level-0 window the clock is in and in word 0
/// of the next one, so words emptied by pop_front or by demotion are searched
/// again from a new window.
template <class Sched>
std::vector<std::uint64_t> fire_word_edges() {
  Sched s;
  std::uint64_t next = 0;
  for (Tick t : kWordEdgeTicks) s.schedule(t, next++);
  std::vector<std::uint64_t> fired;
  std::uint64_t id;
  while (s.pop(kMaxTick, id)) {
    fired.push_back(id);
    if (next < 60) {
      const Tick window = s.now() & ~Tick{2047};
      s.schedule(window + 2047, next++);
      s.schedule(window + 2048 + 1, next++);
    }
  }
  EXPECT_EQ(fired.size(), next);
  return fired;
}

TEST(TimingWheel, SummaryBitsFollowFirstAndLastWordsOfEveryLevel) {
  // A summary bit left set for an emptied word trips the wheel's own
  // SIO_ASSERT when a later search reaches it; one missing for a non-empty
  // word would skip events and break the reference order.
  const auto wheel = fire_word_edges<WheelSched>();
  const auto ref = fire_word_edges<RefHeap>();
  EXPECT_EQ(wheel, ref);
}

// ---- InlineCallback -------------------------------------------------------

TEST(InlineCallback, SmallCapturesStayInline) {
  int x = 0;
  auto small = [&x] { ++x; };
  static_assert(InlineCallback::stores_inline<decltype(small)>());
  InlineCallback cb;
  cb.emplace(small);
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.is_resume());
  cb.invoke();
  cb.invoke();
  EXPECT_EQ(x, 2);
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, ThreeWordCaptureIsTheInlineBoundary) {
  struct ThreeWords {
    void* a;
    void* b;
    void* c;
    void operator()() const {}
  };
  struct FourWords {
    void* a;
    void* b;
    void* c;
    void* d;
    void operator()() const {}
  };
  static_assert(InlineCallback::stores_inline<ThreeWords>());
  static_assert(!InlineCallback::stores_inline<FourWords>());
}

TEST(InlineCallback, BoxedFallbackInvokesAndDestroys) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    Tracked(const Tracked&) { ++live; }
    ~Tracked() { --live; }
  };
  {
    int calls = 0;
    Tracked t;
    std::uint64_t pad[4] = {};
    auto big = [t, pad, &calls] {
      ++calls;
      (void)pad;
    };
    static_assert(!InlineCallback::stores_inline<decltype(big)>());
    InlineCallback cb;
    cb.emplace(big);
    cb.invoke();
    EXPECT_EQ(calls, 1);
    cb.reset();  // must delete the heap box (and its Tracked copy)
    EXPECT_EQ(live, 2);  // `t` and big's capture remain
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineCallback, ReEmplaceDestroysThePreviousCallable) {
  static int live = 0;
  struct Tracked {
    Tracked() { ++live; }
    Tracked(const Tracked&) { ++live; }
    ~Tracked() { --live; }
    void operator()() const {}
  };
  InlineCallback cb;
  cb.emplace(Tracked{});
  cb.emplace([] {});  // implicit reset of the Tracked instance
  EXPECT_EQ(live, 0);
  cb.reset();
  cb.reset();  // reset is idempotent
}

TEST(InlineCallback, ResumeLaneRoundTripsTheHandle) {
  bool ran = false;
  auto body = [](bool* r) -> sio::sim::Task<void> {
    *r = true;
    co_return;
  };
  const auto h = body(&ran).release();
  InlineCallback cb;
  cb.arm_resume(h);
  EXPECT_TRUE(cb.is_resume());
  EXPECT_EQ(cb.waiter().handle.address(), h.address());
#if SIO_SIM_CHECKS
  EXPECT_EQ(cb.waiter().check, &h.promise().check);
#endif
  cb.invoke();  // runs the frame to its final suspend point
  EXPECT_TRUE(ran);
  cb.disarm_resume();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.is_resume());
  h.destroy();
}

}  // namespace
