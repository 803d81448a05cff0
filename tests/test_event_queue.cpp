/**
 * @file
 * Unit tests for the discrete-event queue: ordering, tie-breaking,
 * cancellation, and clearing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace v10 {
namespace {

TEST(EventQueue, EmptyByDefault)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextCycle(), kCycleMax);
    EXPECT_EQ(q.popAndRun(), kCycleMax);
}

TEST(EventQueue, FiresInCycleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.popAndRun();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReturnsFiringCycle)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextCycle(), 42u);
    EXPECT_EQ(q.popAndRun(), 42u);
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
        q.popAndRun();
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
    q.cancel(id); // no-op, no underflow
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsHarmless)
{
    EventQueue q;
    const EventId id = q.schedule(3, [] {});
    q.popAndRun();
    q.cancel(id);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdIsHarmless)
{
    EventQueue q;
    q.schedule(3, [] {});
    q.cancel(9999);
    q.cancel(kNoEvent);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(1, [&] { fired = true; });
    q.schedule(2, [&] { fired = true; });
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.popAndRun(), kCycleMax);
    EXPECT_FALSE(fired);
    q.cancel(id); // stale handle after clear: harmless
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
        q.popAndRun();
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
        q.popAndRun();
    }
    EXPECT_TRUE(monotonic);
}

// A cycle beyond the near-horizon ring window lands in the overflow
// heap; one inside it lands in the ring.
constexpr Cycles kFar = EventQueue::kRingBuckets + 8192;

TEST(EventQueue, CancelOfHeapTopSkipsToNext)
{
    EventQueue q;
    bool fired = false;
    const EventId top = q.schedule(kFar, [&] { fired = true; });
    q.schedule(kFar + 100, [] {});
    q.cancel(top);
    EXPECT_EQ(q.nextCycle(), kFar + 100);
    while (!q.empty())
        q.popAndRun();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, SameCycleFifoAcrossRingHeapBoundary)
{
    EventQueue q;
    std::vector<int> order;
    // Scheduled while kFar is beyond the window: overflow heap.
    q.schedule(kFar, [&] { order.push_back(1); });
    q.schedule(kFar, [&] { order.push_back(2); });
    // Advancing past this event pulls kFar into the ring window
    // (kFar - base < kRingBuckets once base reaches it).
    q.schedule(kFar - EventQueue::kRingBuckets + 1,
               [&] { order.push_back(0); });
    q.popAndRun();
    // Same cycle again, now ring-resident: must fire AFTER the heap
    // entries (they were inserted first).
    q.schedule(kFar, [&] { order.push_back(3); });
    q.schedule(kFar, [&] { order.push_back(4); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClearFromInsideCallbackStopsPop)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] {
        ++fired;
        q.clear();
    });
    q.schedule(5, [&] { ++fired; });
    q.schedule(6, [&] { ++fired; });
    q.schedule(kFar, [&] { ++fired; });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.nextCycle(), kCycleMax);
}

TEST(EventQueue, ClearFromInsideCallbackStopsRunCycle)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&] {
        ++fired;
        q.clear();
    });
    q.schedule(5, [&] { ++fired; });
    EXPECT_EQ(q.runCycle(5), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleAtCurrentCycleFromCallbackFiresSameCycle)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(7, [&] {
        order.push_back(1);
        q.schedule(7, [&] { order.push_back(2); });
    });
    EXPECT_EQ(q.runCycle(7), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RingWrapAroundKeepsOrder)
{
    EventQueue q;
    std::vector<Cycles> fired;
    // Advance the window start so later buckets wrap modulo the ring
    // size, then schedule across the wrap point.
    q.schedule(EventQueue::kRingBuckets - 100, [] {});
    q.popAndRun();
    const Cycles base = EventQueue::kRingBuckets - 100;
    std::vector<Cycles> expect;
    for (Cycles d = 50; d <= 30000; d += 4111) {
        q.schedule(base + d,
                   [&fired, c = base + d] { fired.push_back(c); });
        expect.push_back(base + d);
    }
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(fired, expect);
}

TEST(EventQueue, SlotTableBoundedByLiveEvents)
{
    EventQueue q;
    // Schedule-and-fire one event at a time, 100k times: the id slot
    // table must recycle instead of growing with the total count.
    for (Cycles i = 0; i < 100000; ++i) {
        q.schedule(i + 1, [] {});
        q.popAndRun();
    }
    EXPECT_LE(q.slotCount(), 4u);
    // Same for schedule-and-cancel churn.
    for (Cycles i = 0; i < 100000; ++i)
        q.cancel(q.schedule(200000 + i, [] {}));
    EXPECT_LE(q.slotCount(), 8u);
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
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

} // namespace
} // namespace v10
