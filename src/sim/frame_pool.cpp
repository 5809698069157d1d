#include "sim/frame_pool.hpp"

#include <new>

namespace sio::sim {

namespace {

constexpr std::size_t kClasses = FramePool::kMaxPooledBytes / FramePool::kClassBytes;

struct FreeBlock {
  FreeBlock* next;
};

// Trivially destructible and constant-initialized, so every access is a
// plain thread-local load with no lazy-init guard on the hot path.
struct FreeLists {
  FreeBlock* head[kClasses];
  std::uint64_t upstream;
  // kUnarmed until the thread first caches a block; kClosed once its cached
  // blocks were given back at thread exit.
  unsigned char state;
};

enum : unsigned char { kUnarmed = 0, kActive, kClosed };

constinit thread_local FreeLists tl_lists{};

constexpr std::size_t class_of(std::size_t bytes) { return (bytes - 1) / FramePool::kClassBytes; }
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * FramePool::kClassBytes; }

// Gives the thread's cached blocks back upstream when the thread exits.
// Frames freed after that (by later thread-exit or static destructors) go
// straight upstream.
struct Reaper {
  ~Reaper() {
    FreeLists& l = tl_lists;
    l.state = kClosed;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = l.head[c]) {
        l.head[c] = b->next;
        ::operator delete(static_cast<void*>(b), class_bytes(c));
      }
    }
  }
};

// Registers the exit hook.  A function-local thread_local, so only this
// cold path pays for its lazy construction.
void arm(FreeLists& l) {
  thread_local Reaper reaper;
  (void)reaper;
  l.state = kActive;
}

void* upstream(std::size_t bytes) {
  ++tl_lists.upstream;
  return ::operator new(bytes);
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  if constexpr (kPassThrough) return upstream(bytes);
  if (bytes > kMaxPooledBytes) return upstream(bytes);
  const std::size_t c = class_of(bytes);
  FreeLists& l = tl_lists;
  if (FreeBlock* b = l.head[c]) {
    l.head[c] = b->next;
    return b;
  }
  return upstream(class_bytes(c));
}

void FramePool::deallocate(void* p, std::size_t bytes) noexcept {
  if (kPassThrough || bytes > kMaxPooledBytes) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t c = class_of(bytes);
  FreeLists& l = tl_lists;
  if (l.state != kActive) {
    if (l.state == kClosed) {
      ::operator delete(p, class_bytes(c));
      return;
    }
    arm(l);  // first block this thread caches
  }
  auto* b = static_cast<FreeBlock*>(p);
  b->next = l.head[c];
  l.head[c] = b;
}

std::uint64_t FramePool::upstream_allocations() noexcept { return tl_lists.upstream; }

}  // namespace sio::sim
