// Small-buffer-optimized move-only callable, used for event callbacks.
//
// std::function heap-allocates once a lambda captures more than ~16 bytes
// (libstdc++/libc++ SBO), which puts an allocation on the engine's
// schedule path for typical call sites ([this, id], [this, to, message], ...).
// InlineFunction stores any nothrow-movable callable of up to `Capacity`
// bytes inline (default 48, enough for a `this` pointer plus five words of
// captures) and only falls back to the heap beyond that. It is move-only:
// event callbacks are scheduled once and invoked once, so copyability buys
// nothing and would force every capture to be copyable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>  // std::bad_function_call
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dpjit::sim {

/// Default inline capacity in bytes (>= 48 per the event-engine contract).
inline constexpr std::size_t kInlineFnCapacity = 48;

template <typename Signature, std::size_t Capacity = kInlineFnCapacity>
class InlineFunction;  // primary template; only the R(Args...) partial below exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static constexpr bool is_compatible =
      !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
      std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>;

 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wraps any compatible callable (implicit, mirroring std::function).
  template <typename F, typename = std::enable_if_t<is_compatible<F>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s, Args... args) -> R {
        // Discard the callable's result when R is void (like std::function).
        if constexpr (std::is_void_v<R>) {
          (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
        } else {
          return (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
        }
      };
      manage_ = [](Op op, void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        if (op == Op::kRelocate) ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* s, Args... args) -> R {
        if constexpr (std::is_void_v<R>) {
          (**std::launder(reinterpret_cast<Fn**>(s)))(std::forward<Args>(args)...);
        } else {
          return (**std::launder(reinterpret_cast<Fn**>(s)))(std::forward<Args>(args)...);
        }
      };
      manage_ = [](Op op, void* dst, void* src) {
        // The stored pointer itself is trivially destructible.
        Fn** from = std::launder(reinterpret_cast<Fn**>(src));
        if (op == Op::kRelocate) {
          ::new (dst) Fn*(*from);
        } else {
          delete *from;
        }
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    if (invoke_ == nullptr) throw std::bad_function_call();
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  enum class Op : std::uint8_t { kDestroy, kRelocate };

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, nullptr, storage_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Adopts `other`'s callable (relocating the inline object) and empties it.
  void move_from(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.manage_(Op::kRelocate, storage_, other.storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[Capacity];
  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(Op, void* dst, void* src) = nullptr;
};

/// The event-callback type scheduled on the engine.
using InlineFn = InlineFunction<void()>;

/// Callback executed when an event fires (sim::EventQueue, sim::TwoTierQueue).
using EventFn = InlineFn;

}  // namespace dpjit::sim
