// Allocation-free storage for the two span hot paths: a span-id index and
// a slot arena.
//
// `Tracer` keys its open-span arena by span id and `CriticalPathFold` keys
// its pending children by parent id; both need find/insert/erase on every
// span open and close.  A `std::map` costs a node allocation and an
// O(log n) pointer chase per operation.  This is a linear-probing table of
// (id, slot) pairs with backward-shift deletion: no tombstones, no per-entry
// allocation, and the table only grows (doubling) until it fits the run's
// peak of live ids, so steady state allocates nothing.
//
// Id 0 is never a key: span ids start at 1, and 0 marks an empty entry.
// Nothing iterates the table, so its hash order cannot reach any output.
//
// `SlotArena` holds the records the index points at.  Slot numbers stay
// stable while a record is live, and released slots are reused last-in
// first-out before the arena grows.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sio::obs {

class IdIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The slot stored under `id`, or kNone.
  std::uint32_t find(std::uint32_t id) const {
    if (id == 0 || size_ == 0) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      if (table_[i].id == id) return table_[i].slot;
      if (table_[i].id == 0) return kNone;
    }
  }

  /// Stores `slot` under `id` and returns the slot it replaces (kNone when
  /// `id` was absent).  `id` must be nonzero.
  std::uint32_t exchange(std::uint32_t id, std::uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) grow();
    std::size_t i = home(id);
    while (table_[i].id != 0) {
      if (table_[i].id == id) return std::exchange(table_[i].slot, slot);
      i = (i + 1) & mask();
    }
    table_[i] = Entry{id, slot};
    ++size_;
    return kNone;
  }

  /// Removes `id` and returns its slot (kNone when absent).
  std::uint32_t take(std::uint32_t id) {
    if (id == 0 || size_ == 0) return kNone;
    std::size_t i = home(id);
    while (table_[i].id != id) {
      if (table_[i].id == 0) return kNone;
      i = (i + 1) & mask();
    }
    const std::uint32_t slot = table_[i].slot;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically after the hole.
    for (std::size_t j = (i + 1) & mask(); table_[j].id != 0; j = (j + 1) & mask()) {
      if (((j - home(table_[j].id)) & mask()) >= ((j - i) & mask())) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = Entry{};
    --size_;
    return slot;
  }

  std::size_t size() const { return size_; }
  std::size_t bytes_retained() const { return table_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    std::uint32_t id = 0;
    std::uint32_t slot = 0;
  };

  std::size_t mask() const { return table_.size() - 1; }

  /// Fibonacci hashing: dense, sequential ids spread over the whole table.
  std::size_t home(std::uint32_t id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
    table_.assign(capacity, Entry{});
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (const Entry& e : old) {
      if (e.id != 0) exchange(e.id, e.slot);
    }
  }

  std::vector<Entry> table_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

template <typename T>
class SlotArena {
 public:
  /// A slot holding a value-initialized `T`.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    items_.emplace_back();
    return static_cast<std::uint32_t>(items_.size() - 1);
  }

  /// Resets slot `s` to a value-initialized `T` and queues it for reuse.
  void release(std::uint32_t s) {
    items_[s] = T{};
    free_.push_back(s);
  }

  T& operator[](std::uint32_t s) { return items_[s]; }
  const T& operator[](std::uint32_t s) const { return items_[s]; }

  /// Slots ever handed out, live or free; free slots hold `T{}`.
  std::uint32_t size() const { return static_cast<std::uint32_t>(items_.size()); }
  std::size_t bytes_retained() const {
    return items_.capacity() * sizeof(T) + free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sio::obs
