/**
 * @file
 * Discrete-event queue ordered by (cycle, insertion sequence).
 *
 * Ties at the same cycle fire in insertion order, which makes the
 * simulator deterministic: the scheduler's dispatch decisions at a
 * cycle never depend on queue internals. A Simulator owns exactly one
 * queue, so this is also the order across components.
 *
 * Internally this is a hybrid calendar queue. Events landing inside
 * the near-horizon window [base, base + kRingBuckets) — DMA
 * completions, FU retires, sampler ticks, i.e. almost everything a
 * simulation schedules — go to a bucketed ring with O(1) schedule
 * and pop. Events beyond the window (and any when < base from raw
 * queue use) overflow to the classic min-heap. The ordering contract
 * is preserved exactly: the window only ever grows forward, so every
 * heap entry at a cycle C was scheduled before every ring entry at C
 * and therefore carries a smaller sequence number; draining the heap
 * side first at each cycle replays pure (cycle, seq) order.
 *
 * Cancellation uses a generation-tagged slot table: an EventId packs
 * (slot index + 1, generation), slots are recycled through a free
 * list, and stale handles are harmless because the generation no
 * longer matches. Queue memory is therefore bounded by the peak
 * number of live events, not by the total ever scheduled.
 */

#ifndef V10_SIM_EVENT_QUEUE_H
#define V10_SIM_EVENT_QUEUE_H

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
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

/**
 * Hybrid calendar queue of (cycle, seq) ordered events with O(1)
 * amortized schedule/pop for near-horizon events and slot-recycled
 * cancellation.
 */
class V10_DOMAIN_LOCAL EventQueue
{
  public:
    /** Allocation-free (for small closures) event callback. */
    using EventFn = SmallFn<void()>;

    /**
     * Near-horizon ring width in cycles (one cycle per bucket).
     * Sized from the measured scheduling-delta distribution of the
     * paper pair workloads: ~90% of deltas are below 2^15 cycles
     * (DMA chunk completions, FU retires, slice ticks), so this
     * window keeps the heap for the rare long-compute tail only.
     */
    static constexpr std::size_t kRingBuckets = 32768;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /**
     * Schedule @p cb to fire at absolute cycle @p when; ties at one
     * cycle fire in insertion order.
     * @return a handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Cycles when, F &&cb)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
            return scheduleFn(when, std::forward<F>(cb));
        else
            return scheduleFn(when,
                              EventFn(std::forward<F>(cb), arena_));
    }

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * id is a harmless no-op (lazy deletion).
     */
    void cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return live_; }

    /** Cycle of the earliest live event; kCycleMax when empty. */
    Cycles nextCycle() const;

    /**
     * Pop and run the earliest live event.
     * @return the cycle it fired at, or kCycleMax when empty.
     */
    Cycles popAndRun();

    /**
     * Pop the earliest live event into @p fn WITHOUT running it —
     * the single-pass peek-and-pop the per-event stepping loop uses
     * (one queue scan per event instead of nextCycle + popAndRun).
     * @return the event's cycle, or kCycleMax when empty (then @p fn
     *         is untouched).
     */
    Cycles takeNext(EventFn &fn);

    /**
     * Drain every event at exactly @p when in (cycle, seq) order,
     * including events scheduled at @p when by the callbacks
     * themselves.
     * @return the number of events fired.
     */
    std::uint64_t runCycle(Cycles when);

    /** Drop all pending events. */
    void clear();

    /**
     * Event-id slots ever allocated — bounded by the peak live event
     * count, not the total scheduled (memory regression probe).
     */
    std::size_t slotCount() const { return slots_.size(); }

    /** Slab pool backing oversized event closures. */
    SmallFnArena &arena() { return arena_; }

  private:
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;
        EventId id;
        EventFn fn;
    };

    /**
     * One near-horizon cycle's events: `vec` is index + 1 of an
     * entry vector borrowed from vec_pool_ (contiguous, insertion
     * order), `head` the first unconsumed entry. A bucket is valid
     * only while its occupancy bit is set, so the bucket storage
     * needs no initialization (trivial, implicit-lifetime type).
     */
    struct Bucket
    {
        std::uint32_t vec;
        std::uint32_t head;
    };

    /** Cancellation state for one recycled EventId slot. */
    struct Slot
    {
        std::uint32_t gen = 0;
        bool armed = false;
    };

    static constexpr Cycles kRingMask = kRingBuckets - 1;
    static constexpr std::size_t kBitWords = kRingBuckets / 64;
    static constexpr std::size_t kSumWords = kBitWords / 64;

    /** Min-heap ordering on (when, seq). */
    static bool later(const Entry &a, const Entry &b);

    EventId scheduleFn(Cycles when, EventFn fn);

    /** True when @p when belongs in the ring window. */
    bool
    inWindow(Cycles when) const
    {
        return when >= base_ && when - base_ < kRingBuckets;
    }

    EventId acquireSlot();
    void releaseSlot(EventId id);
    bool isLive(EventId id) const;

    void setBit(std::size_t bucket) const;
    void clearBit(std::size_t bucket) const;
    bool testBit(std::size_t bucket) const;

    /** Pop dead entries off the heap top; return its cycle. */
    Cycles purgeHeapTop() const;

    /** Ring bucket @p bucket (contents meaningful only while its
     * occupancy bit is set). */
    Bucket &bucketRef(std::size_t bucket) const;

    /** Return bucket @p bucket's entry vector to the pool (keeps
     * its capacity) and clear the occupancy bit. */
    void releaseBucket(std::size_t bucket, Bucket &bk) const;

    /**
     * Smallest offset >= @p offset (in ring order from @p start)
     * whose bucket has entries; kRingBuckets when none. Uses the
     * two-level bitmap, so long empty stretches cost a handful of
     * word reads rather than one per 64 buckets.
     */
    std::size_t nextOccupiedOffset(std::size_t start,
                                   std::size_t offset) const;

    /**
     * Cycle of the earliest live ring event (purging dead bucket
     * heads along the way); kCycleMax when the ring is empty.
     */
    Cycles firstRingCycle() const;

    /** Remove and return the heap top (caller purged it live). */
    Entry takeHeapTop();

    // Destruction order matters: the arena must outlive every stored
    // EventFn, so it is declared first (destroyed last).
    SmallFnArena arena_;

    /** Far-future overflow, min-heap on (when, seq). */
    mutable std::vector<Entry> heap_;

    /** Near-horizon ring: bucket (when & kRingMask) holds cycle
     * `when` for when in [base_, base_ + kRingBuckets). Raw,
     * uninitialized storage — the occupancy bitmap is the validity
     * flag, so constructing a queue touches only the bitmaps. */
    std::unique_ptr<unsigned char[]> ring_raw_;

    /** Entry vectors backing occupied buckets. Drained vectors go
     * back to free_vecs_ with their capacity intact, so steady-state
     * scheduling does not allocate; the pool peaks at the maximum
     * number of concurrently pending cycles. */
    mutable std::vector<std::vector<Entry>> vec_pool_;
    mutable std::vector<std::uint32_t> free_vecs_;

    /** Occupancy bitmap over ring buckets (dead entries included
     * until lazily purged). */
    mutable std::array<std::uint64_t, kBitWords> ring_bits_{};

    /** Second level: bit w set iff ring_bits_[w] != 0. */
    mutable std::array<std::uint64_t, kSumWords> ring_sum_{};

    /** Ring window start; advances to each fired cycle. */
    Cycles base_ = 0;

    /** Physical entries held across all ring buckets (live plus
     * dead-not-yet-purged). Zero lets heap-dominant workloads skip
     * the bitmap scan entirely. */
    mutable std::size_t ring_entries_ = 0;

    /** Lower bound on the earliest occupied ring bucket's cycle —
     * scans jump straight there instead of walking from base_.
     * Entries leave buckets only at the front, and schedules lower
     * the bound, so it can only ever be stale-low (extra scan work,
     * never a missed event). */
    mutable Cycles ring_next_ = kCycleMax;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;

    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
};

} // namespace v10

#endif // V10_SIM_EVENT_QUEUE_H
