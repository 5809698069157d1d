// Small-buffer-optimized callable for the engine hot path.
//
// `InlineCallback` stores any `void()` callable whose captures fit in three
// machine words directly inside the event node — no heap allocation, no
// `std::function` manager indirection.  Larger or over-aligned callables fall
// back to a heap box.  A dedicated "resume lane" stores a `WaitHandle` (the
// dominant event kind: every `post()` and `delay()` wake-up) and lets the
// dispatcher recognize it without invoking anything, so sanitizer
// bookkeeping can run before the coroutine resumes.
//
// The type is intentionally non-movable: event nodes never move (the overflow
// heap stores node pointers), so the callable is constructed in place with
// `emplace()`/`arm_resume()` and torn down with `reset()`.

#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/assert.hpp"

namespace sio::sim {

namespace detail {
struct PromiseBase;  // task.hpp
struct FrameCheck;   // engine.hpp
}  // namespace detail

/// A suspended `Task` coroutine as primitives park it and the engine's resume
/// lane carries it: the frame's handle plus, under SIO_SIM_CHECKS, its check
/// block.  Built only from a typed handle (awaiters take a WaitHandle, which
/// the compiler converts from the awaiting coroutine's handle), so the block
/// is reached through the real promise type and never recovered from a
/// type-erased address.  A default-constructed one is an empty placeholder.
struct WaitHandle {
  std::coroutine_handle<> handle{};
#if SIO_SIM_CHECKS
  detail::FrameCheck* check = nullptr;
#endif

  WaitHandle() = default;
  template <class P>
  WaitHandle(std::coroutine_handle<P> h) noexcept  // implicit: awaiters rely on it
      : handle(h)
#if SIO_SIM_CHECKS
        ,
        check(&h.promise().check)
#endif
  {
    static_assert(std::is_base_of_v<detail::PromiseBase, P>,
                  "engine wake-ups take a sim::Task coroutine handle");
  }
};

class InlineCallback {
 public:
  /// Captures up to this many bytes live inside the node itself.
  static constexpr std::size_t kInlineBytes = 3 * sizeof(void*);

  InlineCallback() noexcept = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// True when a callable (or resume handle) is installed.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Installs `fn`; inline when it fits in the small buffer and is nothrow
  /// to construct there, heap-boxed otherwise.
  template <class F>
  void emplace(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "InlineCallback requires a void() callable");
    reset();
    if constexpr (fits_inline<Fn, F>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  /// Installs a coroutine resume — the allocation-free wake-up lane.
  void arm_resume(WaitHandle w) noexcept {
    static_assert(sizeof(WaitHandle) <= kInlineBytes && std::is_trivially_copyable_v<WaitHandle>);
    reset();
    ::new (static_cast<void*>(buf_)) WaitHandle(w);
    ops_ = &kResumeOps;
  }

  /// True when this holds a resume handle rather than a callable.
  bool is_resume() const noexcept { return ops_ == &kResumeOps; }

  /// Clears a resume handle without the vtable round-trip (resume handles
  /// have no state to destroy).  Only valid when is_resume().
  void disarm_resume() noexcept { ops_ = nullptr; }

  /// The stored wake-up; only valid when is_resume().
  WaitHandle waiter() const noexcept {
    return *std::launder(reinterpret_cast<const WaitHandle*>(buf_));
  }

  /// Invokes the stored callable (resume handles resume the coroutine).
  void invoke() { ops_->invoke(buf_); }
  void operator()() { invoke(); }

  /// Destroys the stored callable, returning to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Whether `emplace<F>` would avoid the heap (exposed for tests/benches).
  template <class F>
  static constexpr bool stores_inline() {
    return fits_inline<std::remove_cvref_t<F>, F>();
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  template <class Fn, class F>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_constructible_v<Fn, F&&>;
  }

  template <class Fn>
  static void inline_invoke(void* buf) {
    (*std::launder(reinterpret_cast<Fn*>(buf)))();
  }
  template <class Fn>
  static void inline_destroy(void* buf) noexcept {
    std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
  }
  template <class Fn>
  static void boxed_invoke(void* buf) {
    (**std::launder(reinterpret_cast<Fn**>(buf)))();
  }
  template <class Fn>
  static void boxed_destroy(void* buf) noexcept {
    delete *std::launder(reinterpret_cast<Fn**>(buf));
  }
  static void resume_invoke(void* buf) {
    std::launder(reinterpret_cast<WaitHandle*>(buf))->handle.resume();
  }
  static void noop_destroy(void*) noexcept {}

  template <class Fn>
  static constexpr Ops kInlineOps{&inline_invoke<Fn>, &inline_destroy<Fn>};
  template <class Fn>
  static constexpr Ops kBoxedOps{&boxed_invoke<Fn>, &boxed_destroy<Fn>};
  static constexpr Ops kResumeOps{&resume_invoke, &noop_destroy};

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace sio::sim
