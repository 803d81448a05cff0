/**
 * @file
 * Discrete-event queue ordered by (cycle, insertion sequence).
 *
 * Ties at the same cycle fire in insertion order, which makes the
 * simulator deterministic: the scheduler's dispatch decisions at a
 * cycle never depend on queue internals. A Simulator owns exactly one
 * queue, so this is also the order across components.
 *
 * The queue is one binary min-heap of 24-byte POD keys
 * `{when, id, slot}` in a std::vector, kept by hand-written hole-based
 * sifts that compare one 128-bit composite `when << 64 | id`, so the
 * order is a single unsigned compare instead of a two-branch one. The
 * callbacks live in a side std::deque indexed by `slot`, with a free
 * list of slots, so a sift moves three words instead of a 64-byte
 * SmallFn. The heap is sized for what a simulation actually holds: at
 * most 5 live events per Simulator across the whole `v10sim report`,
 * 20 in a 16-workload (8,8) `v10sim run`, and 32 at Fig. 25's widest
 * point. At those sizes a sift is a handful of compares, and a linear
 * cancel is cheaper than any index that would have to be kept up to
 * date.
 *
 * fireNext() pops the earliest key, runs the callback where it sits
 * and only then releases its slot. A running callback may schedule
 * events, which can grow the slot storage; a deque never moves the
 * elements it holds when it grows, so the running callback stays put.
 * Its slot is off the free list while it runs, and its id is already
 * out of the heap, so cancelling or re-keying its own id does nothing.
 *
 * An EventId is the event's insertion sequence, starting at 1, so it
 * is also its tie-break key. Ids are never reused: cancelling an id
 * that has fired or was cancelled finds nothing and does nothing.
 * reschedule() re-keys a pending event under a fresh sequence and
 * keeps its callback, which is the key a cancel plus a new schedule
 * would give it.
 */

#ifndef V10_SIM_EVENT_QUEUE_H
#define V10_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/small_fn.h"
#include "common/types.h"

namespace v10 {

/** Opaque handle used to cancel a pending event. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kNoEvent = 0;

/** Binary min-heap of events ordered by (cycle, insertion seq). */
class V10_DOMAIN_LOCAL EventQueue
{
  public:
    /** Allocation-free (for small closures) event callback. */
    using EventFn = SmallFn<void()>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to fire at absolute cycle @p when; ties at one
     * cycle fire in insertion order.
     * @return a handle usable with cancel() and reschedule().
     */
    template <typename F>
    EventId
    schedule(Cycles when, F &&cb)
    {
        const std::uint32_t slot = acquireSlot();
        fns_[slot].emplace(std::forward<F>(cb));
        const EventId id = next_id_++;
        heap_.emplace_back();
        siftUp(heap_.size() - 1, Key{when, id, slot});
        return id;
    }

    /**
     * Cancel a pending event: a linear search, then its callback is
     * destroyed, the back key moves into its place and sifts.
     * Cancelling an already-fired, running, cancelled or unknown id
     * (kNoEvent included) is a no-op.
     */
    void cancel(EventId id);

    /**
     * Move a pending event to cycle @p when under a fresh insertion
     * sequence, keeping its callback: the same order as cancel(id)
     * followed by schedule(when, <its callback>).
     * @return the event's new id, or kNoEvent (and nothing changes)
     *         when @p id is not pending.
     */
    EventId reschedule(EventId id, Cycles when);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Callback slots allocated so far (live plus free). */
    std::size_t slots() const { return fns_.size(); }

    /** Cycle of the earliest pending event; kCycleMax when empty. */
    Cycles
    nextCycle() const
    {
        return heap_.empty() ? kCycleMax : heap_.front().when;
    }

    /**
     * Pop the earliest event, set @p clock to its cycle, run its
     * callback in place, then release its slot.
     * @return false, with @p clock untouched, when the queue is empty.
     */
    bool
    fireNext(Cycles &clock)
    {
        if (heap_.empty())
            return false;
        const Key top = heap_.front();
        const Key last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
        clock = top.when;
        EventFn &fn = fns_[top.slot];
        fn();
        fn = nullptr;
        free_.push_back(top.slot);
        return true;
    }

  private:
    /** Heap key; the callback sits in fns_[slot]. */
    struct Key
    {
        Cycles when;
        EventId id;
        std::uint32_t slot;
    };

    /** The heap order as one integer: (when, id) lexicographically. */
    static unsigned __int128
    order(const Key &key)
    {
        return static_cast<unsigned __int128>(key.when) << 64 | key.id;
    }

    /** A free callback slot (grows fns_ when none is free). */
    std::uint32_t
    acquireSlot()
    {
        if (free_.empty()) {
            fns_.emplace_back();
            return static_cast<std::uint32_t>(fns_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** Place @p key in the hole at @p i, moving parents down past
     * it. */
    void
    siftUp(std::size_t i, const Key &key)
    {
        const unsigned __int128 k = order(key);
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (order(heap_[parent]) < k)
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    /** Place @p key in the hole at @p i, moving the smaller child up
     * past it. */
    void
    siftDown(std::size_t i, const Key &key)
    {
        const unsigned __int128 k = order(key);
        const std::size_t n = heap_.size();
        for (std::size_t child = 2 * i + 1; child < n;
             child = 2 * i + 1) {
            if (child + 1 < n &&
                order(heap_[child + 1]) < order(heap_[child]))
                ++child;
            if (k < order(heap_[child]))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = key;
    }

    /** Index of the key with @p id, or heap_.size() when absent. */
    std::size_t find(EventId id) const;

    /** Place @p key in the hole at @p i, which it may leave either way. */
    void siftFrom(std::size_t i, const Key &key);

    std::vector<Key> heap_;
    std::deque<EventFn> fns_;
    std::vector<std::uint32_t> free_;
    EventId next_id_ = 1;
};

} // namespace v10

#endif // V10_SIM_EVENT_QUEUE_H
