// A non-owning reference to a callable.
//
// std::function owns a copy of its callable and allocates when the closure
// outgrows its small buffer, which a lambda capturing a handful of locals
// by reference does. The simulator calls one body per superstep, thousands
// of times per solve, and never keeps it past the call, so it takes a
// FunctionRef instead: two pointers, no allocation. The referenced callable
// must outlive every call through the reference.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace ptilu {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace ptilu
