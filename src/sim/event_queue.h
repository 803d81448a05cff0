/**
 * @file
 * Discrete-event queue ordered by (cycle, insertion sequence).
 *
 * Ties at the same cycle fire in insertion order, which makes the
 * simulator deterministic: the scheduler's dispatch decisions at a
 * cycle never depend on queue internals. A Simulator owns exactly one
 * queue, so this is also the order across components.
 *
 * The queue is one binary min-heap in a std::vector. It is sized for
 * what a simulation actually holds: at most 5 live events per
 * Simulator across the whole `v10sim report`, 20 in a 16-workload
 * (8,8) `v10sim run`, and 32 at Fig. 25's widest point. At those sizes
 * a heap sift is a handful of compares, and a linear cancel is
 * cheaper than any index that would have to be kept up to date.
 *
 * An EventId is the event's insertion sequence, starting at 1, so it
 * is also its tie-break key. Ids are never reused: cancelling an id
 * that has fired or was cancelled finds nothing and does nothing.
 */

#ifndef V10_SIM_EVENT_QUEUE_H
#define V10_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
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
     * @return a handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Cycles when, F &&cb)
    {
        const EventId id = next_id_++;
        heap_.push_back(Entry{when, id, EventFn(std::forward<F>(cb))});
        std::push_heap(heap_.begin(), heap_.end(), later);
        return id;
    }

    /**
     * Cancel a pending event: a linear search, then the back entry
     * moves into its place and sifts. Cancelling an already-fired,
     * cancelled or unknown id (kNoEvent included) is a no-op.
     */
    void cancel(EventId id);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Cycle of the earliest pending event; kCycleMax when empty. */
    Cycles
    nextCycle() const
    {
        return heap_.empty() ? kCycleMax : heap_.front().when;
    }

    /**
     * Pop the earliest event into @p fn without running it.
     * @return the event's cycle, or kCycleMax when empty (then @p fn
     *         is untouched).
     */
    Cycles takeNext(EventFn &fn);

  private:
    struct Entry
    {
        Cycles when;
        EventId id;
        EventFn fn;
    };

    /** Min-heap order on (when, id) for the std max-heap algorithms. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.id > b.id;
    }

    /** Restore heap order after heap_[@p i] was replaced. */
    void siftFrom(std::size_t i);

    std::vector<Entry> heap_;
    EventId next_id_ = 1;
};

} // namespace v10

#endif // V10_SIM_EVENT_QUEUE_H
