/**
 * @file
 * Small-buffer-optimized, move-only callable — the event core's
 * replacement for std::function.
 *
 * The common simulator callback captures `this` plus a few words;
 * SmallFn stores such closures inline (no allocation on schedule or
 * fire). Oversized captures go to plain new/delete, one allocation
 * per closure; no event the simulator schedules is that large.
 * SmallFn is move-only: event callbacks are consumed exactly once,
 * and copyability is what forces std::function to heap-allocate
 * shared state.
 */

#ifndef V10_COMMON_SMALL_FN_H
#define V10_COMMON_SMALL_FN_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.h"

namespace v10 {

template <typename Sig> class SmallFn;

/**
 * Move-only type-erased callable with inline storage for small
 * closures and a heap block for large ones.
 */
template <typename R, typename... Args> class SmallFn<R(Args...)>
{
  public:
    /** Inline capacity: `this` plus five words of captures. */
    static constexpr std::size_t kInlineBytes = 48;

    SmallFn() = default;

    SmallFn(std::nullptr_t) {}

    /** Wrap @p f; large closures spill to the global allocator. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFn(F &&f)
    {
        init(std::forward<F>(f));
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    /** Replace the held callable with @p f, built in place (no
     * temporary SmallFn to relocate). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    void
    emplace(F &&f)
    {
        reset();
        init(std::forward<F>(f));
    }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        if (ops_ == nullptr)
            panic("SmallFn: calling an empty function");
        return ops_->invoke(storage_, static_cast<Args &&>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *storage, Args &&...args);
        void (*relocate)(void *from, void *to) noexcept;
        void (*destroy)(void *storage) noexcept;
        /** True when relocation is a plain byte copy (trivially
         * copyable inline closure, or the heap payload pointer) —
         * lets moves skip the indirect call, which matters inside
         * heap sifts that shuffle entries around. */
        bool trivial_relocate;
        /** True when destruction does nothing (trivially
         * destructible inline closure) — lets reset() skip the
         * indirect call when the event queue releases a slot. */
        bool trivial_destroy;
    };

    /** Callable stored directly in the inline buffer. */
    template <typename T> struct InlineModel
    {
        static T *
        self(void *storage) noexcept
        {
            return std::launder(reinterpret_cast<T *>(storage));
        }

        static R
        invoke(void *storage, Args &&...args)
        {
            return (*self(storage))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *from, void *to) noexcept
        {
            ::new (to) T(std::move(*self(from)));
            self(from)->~T();
        }

        static void
        destroy(void *storage) noexcept
        {
            self(storage)->~T();
        }

        static constexpr Ops ops = {
            &invoke, &relocate, &destroy,
            std::is_trivially_copyable_v<T>,
            std::is_trivially_destructible_v<T>};
    };

    /** Callable spilled to the heap; the buffer holds the pointer. */
    template <typename T> struct HeapModel
    {
        static T *
        self(void *storage) noexcept
        {
            return static_cast<T *>(
                *std::launder(reinterpret_cast<void **>(storage)));
        }

        static R
        invoke(void *storage, Args &&...args)
        {
            return (*self(storage))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *from, void *to) noexcept
        {
            ::new (to) void *(
                *std::launder(reinterpret_cast<void **>(from)));
        }

        static void
        destroy(void *storage) noexcept
        {
            delete self(storage);
        }

        static constexpr Ops ops = {&invoke, &relocate, &destroy,
                                    true, false};
    };

    template <typename F>
    void
    init(F &&f)
    {
        using T = std::decay_t<F>;
        static_assert(alignof(T) <= alignof(std::max_align_t),
                      "over-aligned closures are not supported");
        if constexpr (sizeof(T) <= kInlineBytes &&
                      std::is_nothrow_move_constructible_v<T>) {
            ::new (static_cast<void *>(storage_))
                T(std::forward<F>(f));
            ops_ = &InlineModel<T>::ops;
        } else {
            ::new (static_cast<void *>(storage_))
                void *(new T(std::forward<F>(f)));
            ops_ = &HeapModel<T>::ops;
        }
    }

    void
    moveFrom(SmallFn &other) noexcept
    {
        if (other.ops_ != nullptr) {
            if (other.ops_->trivial_relocate)
                __builtin_memcpy(storage_, other.storage_,
                                 kInlineBytes);
            else
                other.ops_->relocate(other.storage_, storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            if (!ops_->trivial_destroy)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace v10

#endif // V10_COMMON_SMALL_FN_H
