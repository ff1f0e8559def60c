// SmallFn — a move-only `void()` callable with small-buffer optimization.
//
// std::function heap-allocates any closure larger than ~2 pointers, which
// makes it the dominant allocation source in the simulator's event loop
// (every scheduled event wraps a capture-rich lambda). SmallFn stores
// closures up to kSmallFnInlineBytes inline — sized so the simulator's
// hot-path closures (a `this` pointer, a couple of indices, a by-value
// StageMetrics, or a nested SmallFn continuation) never touch the heap —
// and falls back to the heap only for oversized captures.
//
// Differences from std::function: move-only (so move-only captures work),
// no target introspection, invoking an empty SmallFn is undefined.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sds {

/// Inline capture capacity. 88 bytes keeps sizeof(SmallFn) == 96 and lets
/// a closure embed one SmallFn continuation plus a pointer — the nesting
/// the simulator's send→NIC→arrival chains produce.
inline constexpr std::size_t kSmallFnInlineBytes = 88;

class SmallFn {
 public:
  /// True iff a closure of type Fn lives in the inline buffer; any other
  /// closure costs one heap allocation.
  template <typename Fn>
  static constexpr bool kStoresInline =
      sizeof(Fn) <= kSmallFnInlineBytes &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Construct a closure directly in this cell (one placement-new, no
  /// intermediate SmallFn + relocate) — the engine's slab fast path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& fn) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &heap_ops<Fn>;
    }
  }

  void emplace(SmallFn&& other) { *this = std::move(other); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `to` from `from`, then destroy `from`.
    void (*relocate)(void* to, void* from);
    /// Null for a trivially destructible inline closure: most event
    /// captures are plain values, and skipping the call saves an
    /// indirect jump per event.
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* to, void* from) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](void* to, void* from) {
        // A pointer is trivially destructible; copying it suffices.
        ::new (to) Fn*(*std::launder(reinterpret_cast<Fn**>(from)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); }};

  alignas(std::max_align_t) unsigned char storage_[kSmallFnInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(SmallFn) == kSmallFnInlineBytes + sizeof(void*));

}  // namespace sds
