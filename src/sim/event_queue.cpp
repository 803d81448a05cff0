#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace v10 {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

EventQueue::Bucket &
EventQueue::bucketRef(std::size_t bucket) const
{
    // Bucket is a trivial implicit-lifetime type living in the raw
    // slab; the occupancy bit guards every read of it.
    return *reinterpret_cast<Bucket *>(ring_raw_.get() +
                                       bucket * sizeof(Bucket));
}

void
EventQueue::releaseBucket(std::size_t bucket, Bucket &bk) const
{
    vec_pool_[bk.vec - 1].clear(); // keeps capacity for reuse
    free_vecs_.push_back(bk.vec - 1);
    clearBit(bucket);
}

bool
EventQueue::later(const Entry &a, const Entry &b)
{
    // std::push_heap builds a max-heap; invert for min-heap order.
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

EventId
EventQueue::acquireSlot()
{
    std::uint32_t idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{});
    }
    slots_[idx].armed = true;
    return ((static_cast<EventId>(idx) + 1) << 32) | slots_[idx].gen;
}

void
EventQueue::releaseSlot(EventId id)
{
    const std::size_t idx = static_cast<std::size_t>((id >> 32) - 1);
    Slot &slot = slots_[idx];
    slot.armed = false;
    ++slot.gen; // stale handles to this slot stop matching
    free_slots_.push_back(static_cast<std::uint32_t>(idx));
}

bool
EventQueue::isLive(EventId id) const
{
    const std::uint64_t high = id >> 32;
    if (high == 0)
        return false; // kNoEvent and pre-slot-format ids
    const std::size_t idx = static_cast<std::size_t>(high - 1);
    if (idx >= slots_.size())
        return false;
    const Slot &slot = slots_[idx];
    return slot.armed && slot.gen == static_cast<std::uint32_t>(id);
}

void
EventQueue::setBit(std::size_t bucket) const
{
    const std::size_t word = bucket >> 6;
    ring_bits_[word] |= std::uint64_t{1} << (bucket & 63);
    ring_sum_[word >> 6] |= std::uint64_t{1} << (word & 63);
}

void
EventQueue::clearBit(std::size_t bucket) const
{
    const std::size_t word = bucket >> 6;
    ring_bits_[word] &= ~(std::uint64_t{1} << (bucket & 63));
    if (ring_bits_[word] == 0)
        ring_sum_[word >> 6] &=
            ~(std::uint64_t{1} << (word & 63));
}

bool
EventQueue::testBit(std::size_t bucket) const
{
    return ((ring_bits_[bucket >> 6] >> (bucket & 63)) & 1) != 0;
}

EventId
EventQueue::scheduleFn(Cycles when, EventFn fn)
{
    const EventId id = acquireSlot();
    const std::uint64_t seq = next_seq_++;
    if (inWindow(when)) {
        // The 256 KiB bucket slab is allocated on the first ring
        // insertion, so a queue that only ever holds far-future
        // (heap-side) events, or none at all, never pays for it.
        if (ring_raw_ == nullptr)
            ring_raw_.reset(new unsigned char[kRingBuckets *
                                              sizeof(Bucket)]);
        const auto bucket =
            static_cast<std::size_t>(when & kRingMask);
        Bucket &bk = bucketRef(bucket);
        if (!testBit(bucket)) {
            std::uint32_t v;
            if (!free_vecs_.empty()) {
                v = free_vecs_.back();
                free_vecs_.pop_back();
            } else {
                v = static_cast<std::uint32_t>(vec_pool_.size());
                vec_pool_.emplace_back();
            }
            bk.vec = v + 1;
            bk.head = 0;
            setBit(bucket);
        }
        vec_pool_[bk.vec - 1].push_back(
            Entry{when, seq, id, std::move(fn)});
        ++ring_entries_;
        if (when < ring_next_)
            ring_next_ = when;
    } else {
        heap_.push_back(Entry{when, seq, id, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }
    ++live_;
    return id;
}

void
EventQueue::cancel(EventId id)
{
    if (!isLive(id))
        return;
    releaseSlot(id);
    if (live_ == 0)
        V10_PANIC("EventQueue::cancel: live count underflow");
    --live_;
}

Cycles
EventQueue::purgeHeapTop() const
{
    while (!heap_.empty() && !isLive(heap_.front().id)) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }
    return heap_.empty() ? kCycleMax : heap_.front().when;
}

std::size_t
EventQueue::nextOccupiedOffset(std::size_t start,
                               std::size_t offset) const
{
    while (offset < kRingBuckets) {
        const std::size_t probe = (start + offset) & kRingMask;
        const std::uint64_t bits =
            ring_bits_[probe >> 6] >> (probe & 63);
        if (bits != 0)
            return offset +
                   static_cast<std::size_t>(std::countr_zero(bits));
        offset += 64 - (probe & 63); // to the next word boundary
        // Hop empty word runs via the summary bitmap. Word indices
        // stay aligned in probe space, so once the summary says a
        // word is occupied the outer read sees the whole word.
        while (offset < kRingBuckets) {
            const std::size_t word =
                ((start + offset) & kRingMask) >> 6;
            const std::uint64_t sum =
                ring_sum_[word >> 6] >> (word & 63);
            if (sum != 0) {
                offset += 64 * static_cast<std::size_t>(
                                   std::countr_zero(sum));
                break;
            }
            offset += 64 * (64 - (word & 63));
        }
    }
    return offset;
}

Cycles
EventQueue::firstRingCycle() const
{
    if (ring_entries_ == 0)
        return kCycleMax;
    const auto start = static_cast<std::size_t>(base_ & kRingMask);
    // Jump to the cached lower bound; never skips an event because
    // the bound only goes stale low.
    std::size_t offset = 0;
    if (ring_next_ != kCycleMax && ring_next_ > base_)
        offset = static_cast<std::size_t>(ring_next_ - base_);
    if (offset >= kRingBuckets)
        offset = 0; // stale bound from raw-queue misuse
    while ((offset = nextOccupiedOffset(start, offset)) <
           kRingBuckets) {
        const std::size_t bucket = (start + offset) & kRingMask;
        Bucket &bk = bucketRef(bucket);
        auto &entries = vec_pool_[bk.vec - 1];
        while (bk.head < entries.size() &&
               !isLive(entries[bk.head].id)) {
            entries[bk.head].fn = nullptr; // purge dead closures
            ++bk.head;
            --ring_entries_;
        }
        if (bk.head >= entries.size()) {
            releaseBucket(bucket, bk);
            ++offset;
            continue;
        }
        ring_next_ = entries[bk.head].when;
        return ring_next_;
    }
    ring_next_ = kCycleMax; // scan proved the ring empty
    return kCycleMax;
}

Cycles
EventQueue::nextCycle() const
{
    const Cycles heap_when = purgeHeapTop();
    const Cycles ring_when = firstRingCycle();
    return heap_when < ring_when ? heap_when : ring_when;
}

EventQueue::Entry
EventQueue::takeHeapTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
}

Cycles
EventQueue::takeNext(EventFn &fn)
{
    const Cycles heap_when = purgeHeapTop();
    const Cycles ring_when = firstRingCycle();
    if (heap_when == kCycleMax && ring_when == kCycleMax)
        return kCycleMax;

    // Ties go to the heap: a heap entry at a cycle always predates
    // (smaller seq than) every ring entry at that cycle, because the
    // ring window only grows forward.
    if (heap_when <= ring_when) {
        Entry entry = takeHeapTop();
        releaseSlot(entry.id); // fired: stale cancels are no-ops
        --live_;
        if (entry.when > base_)
            base_ = entry.when;
        fn = std::move(entry.fn);
        return entry.when;
    }

    const auto bucket = static_cast<std::size_t>(ring_when & kRingMask);
    Bucket &bk = bucketRef(bucket);
    auto &entries = vec_pool_[bk.vec - 1];
    Entry &entry = entries[bk.head];
    fn = std::move(entry.fn);
    releaseSlot(entry.id);
    ++bk.head;
    --ring_entries_;
    if (bk.head >= entries.size())
        releaseBucket(bucket, bk);
    --live_;
    if (ring_when > base_)
        base_ = ring_when;
    // No references into the bucket survive past this point: the
    // caller's invocation may schedule into (and reallocate) this
    // very bucket's entry vector.
    return ring_when;
}

Cycles
EventQueue::popAndRun()
{
    EventFn fn;
    const Cycles when = takeNext(fn);
    if (when != kCycleMax)
        fn();
    return when;
}

std::uint64_t
EventQueue::runCycle(Cycles when)
{
    std::uint64_t fired = 0;
    if (when > base_)
        base_ = when;

    // Heap side first: every heap entry at this cycle was scheduled
    // before every ring entry at it (the window only grows), so this
    // replays pure (cycle, seq) order. Callbacks cannot add new heap
    // entries at `when` — with base_ == when the cycle is in-window.
    while (purgeHeapTop() == when) {
        Entry entry = takeHeapTop();
        releaseSlot(entry.id);
        --live_;
        ++fired;
        entry.fn();
    }

    const auto bucket = static_cast<std::size_t>(when & kRingMask);
    // Callbacks scheduling at `when` re-arm the bucket (the bit and
    // chain are re-checked each iteration), preserving FIFO order:
    // fresh same-cycle events append at the tail with larger seqs.
    while (testBit(bucket)) {
        Bucket &bk = bucketRef(bucket);
        // Re-fetch per iteration: callbacks scheduling at `when`
        // append to (and may reallocate) this bucket's entries.
        auto &entries = vec_pool_[bk.vec - 1];
        if (bk.head >= entries.size()) {
            releaseBucket(bucket, bk);
            break;
        }
        Entry &entry = entries[bk.head];
        const bool entry_live = isLive(entry.id);
        if (entry_live && entry.when != when)
            break; // raw-queue misuse: bucket holds another cycle
        ++bk.head;
        --ring_entries_;
        if (!entry_live) {
            entry.fn = nullptr;
            continue;
        }
        EventFn fn = std::move(entry.fn);
        releaseSlot(entry.id);
        --live_;
        ++fired;
        // `entry` is dead past this point: the callback may append
        // to this bucket and reallocate the entry vector.
        fn();
    }
    return fired;
}

void
EventQueue::clear()
{
    // Release every live slot (bumping its generation) so stale
    // handles stay harmless, then drop the stored closures.
    for (Entry &entry : heap_) {
        if (isLive(entry.id))
            releaseSlot(entry.id);
    }
    heap_.clear();
    for (std::size_t w = 0; w < kBitWords; ++w) {
        std::uint64_t bits = ring_bits_[w];
        while (bits != 0) {
            const auto b =
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const Bucket &bk = bucketRef(w * 64 + b);
            auto &entries = vec_pool_[bk.vec - 1];
            for (std::size_t i = bk.head; i < entries.size(); ++i) {
                if (isLive(entries[i].id))
                    releaseSlot(entries[i].id);
            }
        }
    }
    vec_pool_.clear();
    free_vecs_.clear();
    ring_bits_.fill(0);
    ring_sum_.fill(0);
    ring_entries_ = 0;
    ring_next_ = kCycleMax;
    live_ = 0;
}

} // namespace v10
