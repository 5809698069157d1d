// Per-thread recycler for coroutine frames.
//
// Every `Task<T>` call heap-allocates a frame, and a simulated read walks a
// chain of them (client -> transfer -> segment -> attempt -> server), each
// 80-850 bytes, created and destroyed once per request.  `FramePool` keeps
// freed frames on one LIFO free list per 64-byte size class up to 2 KiB, so
// steady-state simulation takes no trip through the general-purpose heap.
// Larger frames go straight to `::operator new`.
//
// Ownership is per thread and needs no locking: a block is always pushed to
// the free list of the thread that frees it.  Every cached block is its own
// upstream allocation of its class size, so a frame created on one thread
// and destroyed on another is still returned correctly, and a thread's
// cached blocks are given back upstream when the thread exits.
//
// Under AddressSanitizer the pool is a pass-through: frames go straight to
// `::operator new`/`delete`, so ASan's quarantine keeps catching a use of a
// destroyed frame, and LeakSanitizer sees each frame's own allocation stack
// (which is what `.lsan-suppressions` matches on).

#pragma once

#include <cstddef>
#include <cstdint>

namespace sio::sim {

struct FramePool {
  /// Size-class granularity and the largest pooled frame.
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxPooledBytes = 2048;

  /// True under AddressSanitizer: every frame is its own upstream allocation.
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kPassThrough = true;
#else
  static constexpr bool kPassThrough = false;
#endif

  /// Returns a block of at least `bytes` (16-byte aligned, like `new`).
  static void* allocate(std::size_t bytes);

  /// Returns a block from allocate(); `bytes` must be the size asked for.
  static void deallocate(void* p, std::size_t bytes) noexcept;

  /// Upstream (`::operator new`) allocations made so far by the calling
  /// thread on behalf of coroutine frames.  Read-only; for tests and
  /// allocation accounting.
  static std::uint64_t upstream_allocations() noexcept;
};

}  // namespace sio::sim
