// Hot-path callables for the simulator.
//
// Every scheduled event used to be a std::function<void()>: one heap
// allocation when the daemon captures its state, another copy when the
// priority queue hands it back out.  At millions of events per benchmark
// sweep that allocator traffic dominates the event loop, so the simulator
// uses two purpose-built callable types instead:
//
//   sim::Task     owning, move-only, fixed-size *inline* storage.  The
//                 deferred-work currency of sim::Env: daemon captures
//                 ([this, alive-token]) fit inline and never touch the
//                 heap.  Oversized captures still work — they fall back to
//                 a heap box, and a process-wide counter records it, so
//                 task_test can pin daemon-shaped captures at zero.
//
//   sim::FuncRef  non-owning, two-word view of a callable.  For synchronous
//                 borrows (RPC server work, write-back predicates) where
//                 the callee runs the callable before returning; replaces
//                 `const std::function<...>&` parameters without the
//                 type-erasure allocation at every call site.
//
// netstore-lint's std-function-hot-path rule keeps std::function out of
// src/sim, src/fs and src/block in favour of these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace netstore::sim {

class Task {
 public:
  /// Bytes of inline capture storage.  Sized so Env's heap entries
  /// (deadline + sequence + Task) stay within one cache line; the largest
  /// daemon capture in-tree ([this, std::weak_ptr alive-token]) is 24.
  static constexpr std::size_t kInlineSize = 40;

  Task() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Task> &&
             std::is_invocable_r_v<void, F&>)
  Task(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for lambdas
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      if constexpr (std::is_empty_v<Fn>) {
        // A capture-less callable writes no byte of storage_, but moving
        // the Task memcpys all of it: zero it so that copy reads no
        // indeterminate bytes.
        std::memset(storage_, 0, kInlineSize);
      }
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
      ++inline_constructions_;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
      ++heap_constructions_;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Process-wide construction counters.  Absolute values accumulate
  /// for the process lifetime — report deltas.
  static std::uint64_t inline_constructions() { return inline_constructions_; }
  static std::uint64_t heap_constructions() { return heap_constructions_; }

 private:
  struct Ops {
    void (*invoke)(void* p);
    /// Move-constructs dst from src and destroys src.  nullptr means the
    /// capture is trivially relocatable — a raw memcpy of the storage
    /// suffices.  That covers heap boxes (relocation is a pointer copy)
    /// and every trivially-copyable inline capture, so the move a heap
    /// sift performs per level is usually five SSE loads/stores instead of
    /// an indirect call.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* p);
  };

  /// `ops_` must already be copied from `other` and non-null.
  void relocate_from(Task& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      // TriviallyCopyable implies a trivial destructor, so memcpy-move
      // with no source teardown is exactly the relocation semantics.
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              Fn* s = std::launder(static_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*s));
              s->~Fn();
            },
      [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); },
      /*relocate=*/nullptr,  // moving the box is a pointer copy
      [](void* p) { delete *std::launder(static_cast<Fn**>(p)); },
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Process-wide allocation diagnostics for tests; never read by the
  // simulation, so worlds in one process cannot observe each other here.
  // netstore-lint: allow(process-state) -- host-side diagnostic counter
  inline static std::uint64_t inline_constructions_ = 0;
  // netstore-lint: allow(process-state) -- host-side diagnostic counter
  inline static std::uint64_t heap_constructions_ = 0;

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

template <typename Sig>
class FuncRef;

/// Non-owning callable view.  The referenced callable must outlive every
/// invocation; binding a temporary lambda to a FuncRef parameter is safe
/// for the duration of the call, which is exactly the synchronous-borrow
/// contract it exists for.  Never store a FuncRef beyond the borrow.
template <typename R, typename... Args>
class FuncRef<R(Args...)> {
 public:
  FuncRef() noexcept = default;
  FuncRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FuncRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FuncRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(
              *static_cast<std::remove_reference_t<F>*>(obj),
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace netstore::sim
