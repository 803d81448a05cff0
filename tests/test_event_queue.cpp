/**
 * @file
 * Unit tests for the discrete-event queue: ordering, tie-breaking,
 * cancellation and re-keying, plus a differential test of EventQueue
 * and Simulator against a sorted-vector reference on seeded random
 * programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

/** Pop and run the earliest event; @return its cycle or kCycleMax. */
Cycles
popAndRun(EventQueue &q)
{
    Cycles when = kCycleMax;
    q.fireNext(when);
    return when;
}

TEST(EventQueue, EmptyByDefault)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextCycle(), kCycleMax);
    Cycles clock = 7;
    EXPECT_FALSE(q.fireNext(clock));
    EXPECT_EQ(clock, 7u);
}

TEST(EventQueue, FiresInCycleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        popAndRun(q);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReturnsFiringCycle)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextCycle(), 42u);
    EXPECT_EQ(popAndRun(q), 42u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(10, [&] { fired = true; });
    q.schedule(11, [] {});
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
    while (!q.empty())
        popAndRun(q);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledHeadSkippedByNextCycle)
{
    EventQueue q;
    const EventId id = q.schedule(5, [] {});
    q.schedule(9, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextCycle(), 9u);
}

TEST(EventQueue, DoubleCancelIsHarmless)
{
    EventQueue q;
    const EventId id = q.schedule(3, [] {});
    q.cancel(id);
    q.cancel(id);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsHarmless)
{
    EventQueue q;
    const EventId id = q.schedule(3, [] {});
    q.schedule(4, [] {});
    popAndRun(q);
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelUnknownIdIsHarmless)
{
    EventQueue q;
    q.schedule(3, [] {});
    q.cancel(9999);
    q.cancel(kNoEvent);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelReleasesCaptureAndReusesSlot)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    const EventId id = q.schedule(5, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    q.cancel(id);
    // The callback is destroyed at cancel, not when its slot is next
    // reused.
    EXPECT_EQ(token.use_count(), 1);

    // Slots cycle through the free list, so schedule/cancel/fire
    // cycles never grow the callback storage past the live peak.
    for (Cycles i = 0; i < 10000; ++i) {
        const EventId cancelled = q.schedule(i, [token] { ++*token; });
        q.schedule(i, [token] { ++*token; });
        q.cancel(cancelled);
        EXPECT_EQ(popAndRun(q), i);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(*token, 10000);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(q.slots(), 2u);
}

TEST(EventQueue, RescheduleKeepsCallbackUnderFreshSeq)
{
    EventQueue q;
    std::vector<int> order;
    const EventId moved = q.schedule(3, [&] { order.push_back(1); });
    q.schedule(9, [&] { order.push_back(2); });
    const EventId fresh = q.reschedule(moved, 9);
    // A fresh seq: the re-keyed event now ties after the one that was
    // scheduled at 9 before it, exactly as cancel + schedule would.
    EXPECT_EQ(fresh, 3u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextCycle(), 9u);
    q.cancel(moved); // the old id is gone
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleOfDeadIdChangesNothing)
{
    EventQueue q;
    const EventId fired = q.schedule(1, [] {});
    const EventId cancelled = q.schedule(2, [] {});
    q.schedule(4, [] {});
    popAndRun(q);
    q.cancel(cancelled);
    EXPECT_EQ(q.reschedule(fired, 7), kNoEvent);
    EXPECT_EQ(q.reschedule(cancelled, 7), kNoEvent);
    EXPECT_EQ(q.reschedule(kNoEvent, 7), kNoEvent);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextCycle(), 4u);
    // No seq was consumed: the next schedule gets id 4.
    EXPECT_EQ(q.schedule(5, [] {}), 4u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Cycles> fired;
    q.schedule(1, [&] {
        fired.push_back(1);
        q.schedule(2, [&] { fired.push_back(2); });
    });
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(fired, (std::vector<Cycles>{1, 2}));
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Cycles last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i)
        q.schedule(static_cast<Cycles>((i * 7919) % 257), [] {});
    while (!q.empty()) {
        const Cycles c = q.nextCycle();
        monotonic = monotonic && c >= last;
        last = c;
        popAndRun(q);
    }
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, CancelOfHeapTopSkipsToNext)
{
    EventQueue q;
    bool fired = false;
    const EventId top = q.schedule(40000, [&] { fired = true; });
    q.schedule(40100, [] {});
    q.cancel(top);
    EXPECT_EQ(q.nextCycle(), 40100u);
    while (!q.empty())
        popAndRun(q);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, ScheduleAtCurrentCycleFromCallbackFiresSameCycle)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(7, [&] {
        order.push_back(1);
        q.schedule(7, [&] { order.push_back(2); });
    });
    q.schedule(8, [&] { order.push_back(3); });
    EXPECT_EQ(popAndRun(q), 7u);
    EXPECT_EQ(popAndRun(q), 7u);
    EXPECT_EQ(popAndRun(q), 8u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CallbackGrowsSlotsAndTouchesOwnId)
{
    EventQueue q;
    std::vector<int> order;
    EventId self = kNoEvent;
    const int tag = -1;
    self = q.schedule(5, [&q, &order, &self, tag] {
        // The slot storage grows well past its size at the start of
        // this callback, which keeps running from its own slot.
        for (int i = 0; i < 1000; ++i)
            q.schedule(6 + static_cast<Cycles>(i % 3),
                       [&order, i] { order.push_back(i); });
        EXPECT_EQ(q.slots(), 1001u);
        // This event has left the heap: both calls find nothing.
        q.cancel(self);
        EXPECT_EQ(q.reschedule(self, 4), kNoEvent);
        EXPECT_EQ(q.size(), 1000u);
        // The captures are still read from the (unmoved) slot.
        order.push_back(tag);
    });
    EXPECT_EQ(popAndRun(q), 5u);
    // No sequence was consumed by the dead-id calls.
    EXPECT_EQ(q.schedule(9, [&order] { order.push_back(-2); }), 1002u);
    while (!q.empty())
        popAndRun(q);
    std::vector<int> expect{-1};
    for (int r = 0; r < 3; ++r)
        for (int i = r; i < 1000; i += 3)
            expect.push_back(i);
    expect.push_back(-2);
    EXPECT_EQ(order, expect);
    // Every slot went back to the free list.
    EXPECT_EQ(q.slots(), 1001u);
}

TEST(EventQueue, CancelRingEntryBetweenLiveOnes)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(9, [&] { order.push_back(1); });
    const EventId mid = q.schedule(9, [&] { order.push_back(2); });
    q.schedule(9, [&] { order.push_back(3); });
    q.cancel(mid);
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

/** Distances well past any near-future window a queue might keep. */
constexpr Cycles kWindow = 32768;
constexpr Cycles kFar = kWindow + 8192;

TEST(EventQueue, SameCycleFifoAcrossRingHeapBoundary)
{
    EventQueue q;
    std::vector<int> order;
    // Scheduled while kFar is far ahead of the clock.
    q.schedule(kFar, [&] { order.push_back(1); });
    q.schedule(kFar, [&] { order.push_back(2); });
    // Firing this event moves the clock to within kWindow of kFar.
    q.schedule(kFar - kWindow + 1, [&] { order.push_back(0); });
    popAndRun(q);
    // Same cycle again, now near: must fire AFTER the earlier entries
    // (they were inserted first).
    q.schedule(kFar, [&] { order.push_back(3); });
    q.schedule(kFar, [&] { order.push_back(4); });
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RingWrapAroundKeepsOrder)
{
    EventQueue q;
    std::vector<Cycles> fired;
    // Advance the clock near a window boundary, then schedule events
    // spread across it.
    q.schedule(kWindow - 100, [] {});
    popAndRun(q);
    const Cycles base = kWindow - 100;
    std::vector<Cycles> expect;
    for (Cycles d = 50; d <= 30000; d += 4111) {
        q.schedule(base + d,
                   [&fired, c = base + d] { fired.push_back(c); });
        expect.push_back(base + d);
    }
    while (!q.empty())
        popAndRun(q);
    EXPECT_EQ(fired, expect);
}

/**
 * Reference queue: a vector kept sorted by (when, seq), with erase on
 * cancel. Same API and id numbering as EventQueue.
 */
class SortedQueue
{
  public:
    using EventFn = EventQueue::EventFn;

    template <typename F>
    EventId
    schedule(Cycles when, F &&cb)
    {
        const EventId id = next_id_++;
        // Ids grow, so a new entry goes after every entry at `when`.
        const auto pos = std::upper_bound(
            entries_.begin(), entries_.end(), when,
            [](Cycles w, const Entry &e) { return w < e.when; });
        entries_.insert(pos, Entry{when, id, EventFn(std::forward<F>(cb))});
        return id;
    }

    void
    cancel(EventId id)
    {
        const auto it =
            std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry &e) { return e.id == id; });
        if (it != entries_.end())
            entries_.erase(it);
    }

    /** Cancel, then schedule the same callback anew. */
    EventId
    reschedule(EventId id, Cycles when)
    {
        const auto it =
            std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry &e) { return e.id == id; });
        if (it == entries_.end())
            return kNoEvent;
        EventFn fn = std::move(it->fn);
        entries_.erase(it);
        return schedule(when, std::move(fn));
    }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    Cycles
    nextCycle() const
    {
        return entries_.empty() ? kCycleMax : entries_.front().when;
    }

    /** Take the earliest entry out, set @p clock, then run it. */
    bool
    fireNext(Cycles &clock)
    {
        if (entries_.empty())
            return false;
        clock = entries_.front().when;
        EventFn fn = std::move(entries_.front().fn);
        entries_.erase(entries_.begin());
        fn();
        return true;
    }

  private:
    struct Entry
    {
        Cycles when;
        EventId id;
        EventFn fn;
    };

    std::vector<Entry> entries_;
    EventId next_id_ = 1;
};

/**
 * Simulator's documented clock semantics over any queue with
 * EventQueue's API, so the queue can be checked without Simulator
 * (and Simulator against the reference queue).
 */
template <typename Q> class Kernel
{
  public:
    Cycles now() const { return now_; }
    bool idle() const { return queue.empty(); }

    template <typename F>
    EventId
    at(Cycles when, F &&cb)
    {
        return queue.schedule(when, std::forward<F>(cb));
    }

    void cancel(EventId id) { queue.cancel(id); }

    EventId
    rescheduleAfter(EventId id, Cycles delta)
    {
        return queue.reschedule(id, now_ + delta);
    }

    bool step() { return queue.fireNext(now_); }

    /** Fire every event at cycles <= @p limit; the clock ends at
     * @p limit or later. */
    void
    runUntil(Cycles limit)
    {
        while (!queue.empty() && queue.nextCycle() <= limit)
            step();
        now_ = std::max(now_, limit);
    }

    Q queue;

  private:
    Cycles now_ = 0;
};

/** How many events a RandomProgram starts with and spawns in all. */
struct ProgramSize
{
    std::size_t initial = 16;
    std::size_t maxEvents = 600;
};

/**
 * A seeded random event program. Callbacks schedule children at
 * far, near and zero deltas, cancel pending same-cycle siblings and
 * other pending events, and cancel fired ids, cancelled ids and
 * kNoEvent. They also re-key pending events (same-cycle siblings
 * included) and try to re-key fired ids, cancelled ids and kNoEvent,
 * which must change nothing. The run loop interleaves single steps
 * with runUntil stops.
 * Every random draw happens in fire order, so two kernels that fire
 * in the same order produce the same trace, and the first divergence
 * shows up in it.
 */
template <typename Sim> class RandomProgram
{
  public:
    /** @p shape adds the queue's size() and nextCycle() after every
     * run-loop step to the trace (kernels that expose `queue` only). */
    RandomProgram(Sim &sim, std::uint64_t seed, bool shape,
                  ProgramSize size = {})
        : sim_(sim), rng_(seed), shape_(shape), size_(size)
    {
    }

    /** Largest size() seen after a run-loop step (shape runs only). */
    std::size_t peakSize() const { return peak_size_; }

    /** Run to completion; @return the trace of fires and stops. */
    std::vector<std::uint64_t>
    run()
    {
        for (std::size_t i = 0; i < size_.initial; ++i)
            spawn(delta());
        while (!sim_.idle()) {
            if (rng_.next() % 5 == 0) {
                sim_.runUntil(sim_.now() + rng_.next() % 64);
                trace_.push_back(kStopMark);
                trace_.push_back(sim_.now());
            } else {
                sim_.step();
            }
            if constexpr (requires { sim_.queue.size(); }) {
                if (shape_) {
                    peak_size_ =
                        std::max(peak_size_, sim_.queue.size());
                    trace_.push_back(sim_.queue.size());
                    trace_.push_back(sim_.queue.nextCycle());
                }
            }
        }
        return trace_;
    }

  private:
    static constexpr std::uint64_t kStopMark = ~std::uint64_t{0};

    enum class State { Pending, Fired, Cancelled };

    Cycles
    delta()
    {
        switch (rng_.next() % 4) {
        case 0:
            return 0;
        case 1:
            return rng_.next() % 4;
        case 2:
            return rng_.next() % 5000;
        default:
            return (Cycles{1} << 20) + rng_.next() % (Cycles{1} << 24);
        }
    }

    void
    spawn(Cycles d)
    {
        if (ids_.size() >= size_.maxEvents)
            return;
        const std::size_t tag = ids_.size();
        whens_.push_back(sim_.now() + d);
        states_.push_back(State::Pending);
        ids_.push_back(sim_.at(sim_.now() + d, [this, tag] { fire(tag); }));
    }

    void
    cancelTag(std::size_t tag)
    {
        sim_.cancel(ids_[tag]);
        if (states_[tag] == State::Pending)
            states_[tag] = State::Cancelled;
    }

    /** Re-key @p tag (or kNoEvent when @p tag is ids_.size()) by a
     * random delta; the id it returns goes into the trace. */
    void
    rekeyTag(std::size_t tag)
    {
        const Cycles d = delta();
        const EventId old = tag < ids_.size() ? ids_[tag] : kNoEvent;
        const EventId fresh = sim_.rescheduleAfter(old, d);
        trace_.push_back(fresh);
        if (tag < ids_.size() && states_[tag] == State::Pending) {
            EXPECT_NE(fresh, kNoEvent) << "tag " << tag;
            ids_[tag] = fresh;
            whens_[tag] = sim_.now() + d;
        } else {
            EXPECT_EQ(fresh, kNoEvent) << "tag " << tag;
        }
    }

    /** Some tag in @p wanted state (at the current cycle when
     * @p same_cycle), or ids_.size() when there is none. */
    std::size_t
    pick(State wanted, bool same_cycle)
    {
        std::vector<std::size_t> hits;
        for (std::size_t t = 0; t < ids_.size(); ++t)
            if (states_[t] == wanted &&
                (!same_cycle || whens_[t] == sim_.now()))
                hits.push_back(t);
        if (hits.empty())
            return ids_.size();
        return hits[rng_.next() % hits.size()];
    }

    void
    fire(std::size_t tag)
    {
        EXPECT_EQ(states_[tag], State::Pending) << "tag " << tag;
        EXPECT_EQ(whens_[tag], sim_.now()) << "tag " << tag;
        states_[tag] = State::Fired;
        trace_.push_back(sim_.now());
        trace_.push_back(tag);
        const auto action = rng_.next() % 12;
        std::size_t victim = ids_.size();
        switch (action) {
        case 0:
            spawn(0);
            spawn(0);
            break;
        case 1:
            victim = pick(State::Pending, true);
            break;
        case 2:
            victim = pick(State::Pending, false);
            break;
        case 3:
            victim = pick(State::Fired, false);
            break;
        case 4:
            victim = pick(State::Cancelled, false);
            break;
        case 5:
            sim_.cancel(kNoEvent);
            break;
        case 6:
            rekeyTag(pick(State::Pending, true));
            break;
        case 7:
            rekeyTag(pick(State::Pending, false));
            break;
        case 8:
            rekeyTag(pick(rng_.next() % 2 == 0 ? State::Fired
                                                : State::Cancelled,
                          false));
            break;
        case 9:
            rekeyTag(ids_.size());
            break;
        default:
            spawn(delta());
            break;
        }
        if (victim < ids_.size())
            cancelTag(victim);
        if (action != 0)
            spawn(delta());
    }

    Sim &sim_;
    Rng rng_;
    bool shape_;
    ProgramSize size_;
    std::size_t peak_size_ = 0;
    std::vector<EventId> ids_;
    std::vector<Cycles> whens_;
    std::vector<State> states_;
    std::vector<std::uint64_t> trace_;
};

template <typename Sim>
std::vector<std::uint64_t>
traceOf(std::uint64_t seed, bool shape)
{
    Sim sim;
    return RandomProgram<Sim>(sim, seed, shape).run();
}

TEST(EventQueue, MatchesSortedReferenceOnRandomPrograms)
{
    // Fire order, the clock at every stop, and size() and nextCycle()
    // after every run-loop step all match the sorted reference.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto expect = traceOf<Kernel<SortedQueue>>(seed, true);
        ASSERT_GT(expect.size(), 1000u) << "seed " << seed;
        EXPECT_EQ(traceOf<Kernel<EventQueue>>(seed, true), expect)
            << "seed " << seed;
    }
}

TEST(EventQueue, DeepHeapMatchesSortedReferenceOnRandomPrograms)
{
    // Over 256 live events, so sifts run 8+ levels deep and cancels
    // and re-keys land on interior nodes; the same checks as above.
    constexpr ProgramSize kDeep{320, 2400};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Kernel<SortedQueue> ref;
        const auto expect =
            RandomProgram<Kernel<SortedQueue>>(ref, seed, true, kDeep)
                .run();
        Kernel<EventQueue> heap;
        RandomProgram<Kernel<EventQueue>> program(heap, seed, true,
                                                  kDeep);
        EXPECT_EQ(program.run(), expect) << "seed " << seed;
        EXPECT_GE(program.peakSize(), 256u) << "seed " << seed;
    }
}

TEST(EventQueue, SimulatorMatchesSortedReferenceOnRandomPrograms)
{
    // Simulator's step() and runUntil() replay the reference kernel's
    // fire order and clock.
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        EXPECT_EQ(traceOf<Simulator>(seed, false),
                  traceOf<Kernel<SortedQueue>>(seed, false))
            << "seed " << seed;
}

} // namespace
} // namespace v10
