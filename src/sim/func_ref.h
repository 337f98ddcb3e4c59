// Borrowed callables for the simulator's hot paths.
//
// sim::FuncRef is a non-owning, two-word view of a callable, for
// synchronous borrows (RPC server work, write-back predicates, page
// visitors) where the callee runs the callable before returning.  It
// replaces `const std::function<...>&` parameters without the
// type-erasure allocation at every call site, and it runs on every RPC
// and every page visit.
//
// netstore-lint's std-function-hot-path rule keeps std::function out of
// src/sim, src/fs and src/block in favour of this.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace netstore::sim {

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
