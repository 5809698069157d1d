// Hierarchical timing wheel: the engine's event store.
//
// Three levels of 2048 slots each cover successively coarser windows around
// the current time (1 tick, 2^11 ticks, 2^22 ticks per slot — about 8.6
// simulated seconds in total), with a (time, seq) binary min-heap catching
// far-future overflow.  Every slot is a FIFO singly-linked list of intrusive
// event nodes drawn from a freelist over arena blocks, so steady-state
// scheduling allocates nothing.  Each level marks its non-empty slots in a
// 32-word bitmap plus a 32-bit summary word (bit w set iff bitmap word w is
// non-zero), so finding a level's next non-empty slot is two `countr_zero`
// calls rather than a scan over the bitmap.
//
// Order contract (identical to the old priority queue): events fire in
// (time, insertion-seq) order.  The subtle part is level selection: a level
// may accept an event only if the event's time falls in the *same
// next-coarser-granularity block as now()* — i.e. level k takes t iff
// t and now() agree above bit 11*(k+1).  Direct inserts into a block can then
// only happen after the clock has entered that block, which is exactly when
// `settle()` has already demoted every coarser-level slot (and drained the
// overflow heap) covering it.  All lower-seq events therefore reach their
// final level-0 slot before any later insert appends to it, and per-slot
// FIFO order is seq order.  The engine stress test checks this against a
// reference heap over millions of mixed near/far/zero-tick events.

#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace sio::sim {

/// Largest representable time point; used as the "no limit" sentinel.
inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/// One scheduled event.  Nodes live in arena blocks owned by the wheel and
/// never move; the overflow heap and slot lists hold raw pointers.
struct EventNode {
  Tick at = 0;
  std::uint64_t seq = 0;
  EventNode* next = nullptr;
  InlineCallback cb;
};

class TimingWheel {
 public:
  static constexpr int kBits = 11;                  // log2 slots per level
  static constexpr std::size_t kSlots = std::size_t{1} << kBits;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr int kLevels = 3;

  TimingWheel() = default;
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;
  ~TimingWheel() {
    // Arena blocks own every node; live callbacks are destroyed by the
    // node's InlineCallback destructor when the blocks are freed below.
  }

  Tick now() const { return now_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Schedules `fn` at absolute time `at` (>= now()).
  template <class F>
  void emplace(Tick at, F&& fn) {
    EventNode* n = acquire();
    try {
      n->cb.emplace(std::forward<F>(fn));
    } catch (...) {
      n->next = free_;
      free_ = n;
      throw;
    }
    finish_insert(n, at);
  }

  /// Schedules a coroutine resume at absolute time `at` — no allocation, no
  /// callable construction.
  void emplace_resume(Tick at, WaitHandle w) {
    EventNode* n = acquire();
    n->cb.arm_resume(w);
    finish_insert(n, at);
  }

  /// Detaches and returns the earliest event with at <= limit, advancing the
  /// clock to its time; nullptr when there is none.  The caller invokes the
  /// callback and then hands the node back via release().
  EventNode* pop_next(Tick limit) {
    // Fast lane: a lone pending event (the common shape — one sleeping task,
    // or strictly alternating schedule/dispatch) never touches the slot
    // structures at all.  The rest of the wheel is empty by the fast-lane
    // invariant, so demotion/drain would be no-ops and the clock can jump
    // straight to the event.
    if (fast_ != nullptr) {
      EventNode* n = fast_;
      if (n->at > limit) return nullptr;
      fast_ = nullptr;
      now_ = n->at;
      --size_;
      return n;
    }
    for (;;) {
      if (size_ == 0) return nullptr;
      Tick m = lower_bound();
      if (m > limit) return nullptr;
      if (m > now_) {
        now_ = m;
        settle();
      }
      if (Slot* s0 = levels_[0].slots; s0 != nullptr) {
        Slot& s = s0[static_cast<std::uint64_t>(now_) & kMask];
        if (s.head != nullptr) return pop_front(s);
      }
      // `m` came from a coarse slot's start time; after demotion the true
      // minimum is later.  Re-scan (now exact at level 0).
    }
  }

  /// Returns a dispatched node to the freelist (destroys its callback).
  void release(EventNode* n) {
    n->cb.reset();
    n->next = free_;
    free_ = n;
  }

  /// release() for nodes known to hold a resume handle — skips the
  /// callback-destruction dispatch.
  void release_resume(EventNode* n) {
    n->cb.disarm_resume();
    n->next = free_;
    free_ = n;
  }

  /// Moves the clock forward to `t` (no-op if t <= now()).  Pre: no stored
  /// event is earlier than `t`.
  void advance_clock(Tick t) {
    if (t > now_) {
      now_ = t;
      settle();
    }
  }

 private:
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  static constexpr std::size_t kWords = kSlots / 64;
  static_assert(kWords == 32, "one summary bit per bitmap word");
  struct Level {
    Slot* slots = nullptr;  // lazily allocated for levels 1..2
    std::uint64_t bitmap[kWords] = {};
    std::uint32_t summary = 0;  // bit w set iff bitmap[w] != 0

    bool empty() const { return summary == 0; }

    void mark(std::uint64_t idx) {
      bitmap[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      summary |= std::uint32_t{1} << (idx >> 6);
    }
    void unmark(std::uint64_t idx) {
      if ((bitmap[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63))) == 0) {
        summary &= ~(std::uint32_t{1} << (idx >> 6));
      }
    }
    /// First non-empty slot at or after `from`, or -1.  Levels never wrap
    /// within the current alignment block, so a forward search is complete.
    int first_at_or_after(std::uint64_t from) const {
      const std::uint64_t wi = from >> 6;
      const std::uint64_t word = bitmap[wi] & (~std::uint64_t{0} << (from & 63));
      if (word != 0) return static_cast<int>(wi << 6) + std::countr_zero(word);
      const std::uint64_t later = summary & (~std::uint64_t{1} << wi);  // words after wi
      if (later == 0) return -1;
      const int w = std::countr_zero(later);
      SIO_ASSERT(bitmap[w] != 0);  // summary bits never outlive their word
      return (w << 6) + std::countr_zero(bitmap[w]);
    }
  };
  static constexpr std::size_t kArenaBlock = 256;

  static std::uint64_t u(Tick t) { return static_cast<std::uint64_t>(t); }

  EventNode* acquire() {
    if (free_ == nullptr) refill();
    EventNode* n = free_;
    free_ = n->next;
    return n;
  }

  void refill() {
    arena_.push_back(std::make_unique<EventNode[]>(kArenaBlock));
    EventNode* block = arena_.back().get();
    for (std::size_t i = 0; i < kArenaBlock; ++i) {
      block[i].next = free_;
      free_ = &block[i];
    }
  }

  void finish_insert(EventNode* n, Tick at) {
    SIO_ASSERT(at >= now_);
    n->at = at;
    n->seq = next_seq_++;
    ++size_;
    if (size_ == 1) {  // wheel empty: park in the fast lane
      fast_ = n;
      return;
    }
    if (fast_ != nullptr) {  // second event arrived: spill the first (lower
      EventNode* f = fast_;  // seq) into the wheel before the newcomer
      fast_ = nullptr;
      insert_node(f);
    }
    insert_node(n);
  }

  void insert_node(EventNode* n) {
    const std::uint64_t diff = u(n->at) ^ u(now_);
    int level;
    if ((diff >> kBits) == 0) {
      level = 0;
    } else if ((diff >> (2 * kBits)) == 0) {
      level = 1;
    } else if ((diff >> (3 * kBits)) == 0) {
      level = 2;
    } else {
      heap_push(n);
      return;
    }
    Level& L = levels_[level];
    if (L.slots == nullptr) {
      slot_arrays_[level] = std::make_unique<Slot[]>(kSlots);
      L.slots = slot_arrays_[level].get();
    }
    const std::uint64_t idx = (u(n->at) >> (kBits * level)) & kMask;
    Slot& s = L.slots[idx];
    n->next = nullptr;
    if (s.tail != nullptr) {
      s.tail->next = n;
    } else {
      s.head = n;
      L.mark(idx);
    }
    s.tail = n;
  }

  EventNode* pop_front(Slot& s) {
    EventNode* n = s.head;
    s.head = n->next;
    if (s.head == nullptr) {
      s.tail = nullptr;
      levels_[0].unmark(u(n->at) & kMask);
    }
    --size_;
    return n;
  }

  /// Lower bound on the earliest stored event time; exact when it comes from
  /// level 0 or the heap.
  Tick lower_bound() const {
    Tick m = kMaxTick;
    if (!levels_[0].empty()) {
      const int bit = levels_[0].first_at_or_after(u(now_) & kMask);
      SIO_ASSERT(bit >= 0);
      m = static_cast<Tick>((u(now_) & ~kMask) | static_cast<std::uint64_t>(bit));
    }
    for (int k = 1; k < kLevels; ++k) {
      if (levels_[k].empty()) continue;
      const int bit = levels_[k].first_at_or_after((u(now_) >> (kBits * k)) & kMask);
      SIO_ASSERT(bit >= 0);
      const std::uint64_t span_mask = (std::uint64_t{1} << (kBits * (k + 1))) - 1;
      const Tick start = static_cast<Tick>((u(now_) & ~span_mask) |
                                           (static_cast<std::uint64_t>(bit) << (kBits * k)));
      if (start < m) m = start;
    }
    if (!heap_.empty() && heap_.front()->at < m) m = heap_.front()->at;
    return m;
  }

  /// Restores the level invariants after the clock moved: drains overflow
  /// entries whose block the clock just entered, then demotes the coarse
  /// slots covering now() — top-down, so each node descends to its final
  /// level before any direct insert can append behind it.
  void settle() {
    while (!heap_.empty() && (u(heap_.front()->at) ^ u(now_)) >> (kBits * kLevels) == 0) {
      insert_node(heap_pop());
    }
    demote(2);
    demote(1);
  }

  void demote(int k) {
    Level& L = levels_[k];
    if (L.empty()) return;
    const std::uint64_t idx = (u(now_) >> (kBits * k)) & kMask;
    Slot& s = L.slots[idx];
    EventNode* n = s.head;
    if (n == nullptr) return;
    s.head = nullptr;
    s.tail = nullptr;
    L.unmark(idx);
    while (n != nullptr) {
      EventNode* next = n->next;
      insert_node(n);  // lands strictly below level k
      n = next;
    }
  }

  static bool heap_later(const EventNode* a, const EventNode* b) {
    if (a->at != b->at) return a->at > b->at;
    return a->seq > b->seq;
  }
  void heap_push(EventNode* n) {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), &heap_later);
  }
  EventNode* heap_pop() {
    std::pop_heap(heap_.begin(), heap_.end(), &heap_later);
    EventNode* n = heap_.back();
    heap_.pop_back();
    return n;
  }

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  // Fast lane: when the wheel holds exactly one event, it lives here and the
  // level/heap structures stay untouched (invariant: fast_ != nullptr implies
  // levels and heap are empty, size_ == 1).
  EventNode* fast_ = nullptr;
  Level levels_[kLevels];
  std::unique_ptr<Slot[]> slot_arrays_[kLevels];  // lazily allocated
  std::vector<EventNode*> heap_;
  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> arena_;
};

}  // namespace sio::sim
