/**
 * @file
 * Unit tests for the simulation kernel: clock advancement, absolute
 * and relative scheduling, bounded runs, stop predicates, and the
 * (cycle, insertion sequence) order that same-cycle events from
 * different components fire in.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "npu/hbm.h"
#include "npu/systolic_array.h"
#include "npu/vector_unit.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

TEST(Simulator, StartsAtCycleZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, AfterAdvancesClock)
{
    Simulator sim;
    Cycles seen = 0;
    sim.after(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, AtSchedulesAbsolute)
{
    Simulator sim;
    sim.after(10, [] {});
    sim.run();
    Cycles seen = 0;
    sim.at(25, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 25u);
}

TEST(Simulator, StepRunsExactlyOneEvent)
{
    Simulator sim;
    int count = 0;
    sim.after(1, [&] { ++count; });
    sim.after(2, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.after(10, [&] { ++fired; });
    sim.after(20, [&] { ++fired; });
    sim.after(30, [&] { ++fired; });
    sim.runUntil(20);
    EXPECT_EQ(fired, 2); // events at 10 and exactly 20 fire
    EXPECT_EQ(sim.now(), 20u);
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents)
{
    Simulator sim;
    sim.runUntil(500);
    EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, StopPredicateHaltsRun)
{
    Simulator sim;
    int fired = 0;
    for (Cycles c = 1; c <= 10; ++c)
        sim.after(c, [&] { ++fired; });
    sim.run([&] { return fired >= 4; });
    EXPECT_EQ(fired, 4);
    EXPECT_FALSE(sim.idle());
}

TEST(Simulator, CancelledEventNeverFires)
{
    Simulator sim;
    bool fired = false;
    const EventId id = sim.after(5, [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, EventsRunCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.after(static_cast<Cycles>(i + 1), [] {});
    sim.run();
    EXPECT_EQ(sim.eventsRun(), 7u);
}

TEST(Simulator, ChainedEventsKeepConsistentNow)
{
    Simulator sim;
    std::vector<Cycles> times;
    sim.after(10, [&] {
        times.push_back(sim.now());
        sim.after(5, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10u);
    EXPECT_EQ(times[1], 15u);
}

TEST(SimulatorDeath, SchedulingIntoThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    sim.after(10, [] {});
    sim.run();
    EXPECT_DEATH(sim.at(5, [] {}), "past");
}

TEST(Simulator, EveryFiresAtEachInterval)
{
    Simulator sim;
    std::vector<Cycles> ticks;
    sim.every(10, [&] { ticks.push_back(sim.now()); });
    sim.runUntil(35);
    EXPECT_EQ(ticks, (std::vector<Cycles>{10, 20, 30}));
}

TEST(Simulator, CancelEveryStopsTicks)
{
    Simulator sim;
    int ticks = 0;
    const PeriodicId id = sim.every(5, [&] { ++ticks; });
    sim.runUntil(12);
    EXPECT_EQ(ticks, 2);
    sim.cancelEvery(id);
    sim.runUntil(100);
    EXPECT_EQ(ticks, 2);
    EXPECT_TRUE(sim.idle());
    sim.cancelEvery(id);          // double cancel: harmless
    sim.cancelEvery(kNoPeriodic); // unknown ids: harmless
    sim.cancelEvery(9999);
}

TEST(Simulator, CancelEveryFromInsideItsOwnCallback)
{
    Simulator sim;
    int ticks = 0;
    PeriodicId id = kNoPeriodic;
    id = sim.every(3, [&] {
        if (++ticks == 2)
            sim.cancelEvery(id);
    });
    sim.run();
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(sim.now(), 6u);
}

TEST(Simulator, MultiplePeriodicsInterleaveDeterministically)
{
    Simulator sim;
    std::vector<int> order;
    const PeriodicId a = sim.every(4, [&] { order.push_back(1); });
    sim.every(6, [&] { order.push_back(2); });
    sim.runUntil(12);
    // Cycle 12: both fire; the one whose re-arm was scheduled
    // earlier (b, at cycle 6) ticks first — pure insertion order.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1}));
    sim.cancelEvery(a);
    sim.runUntil(18);
    EXPECT_EQ(order.back(), 2);
}

TEST(Simulator, PeriodicRegisteredInsideCallback)
{
    Simulator sim;
    int inner = 0;
    sim.after(5, [&] {
        sim.every(2, [&] { ++inner; });
    });
    sim.runUntil(11);
    EXPECT_EQ(inner, 3); // ticks at 7, 9, 11
}

TEST(SimulatorDeath, ZeroIntervalEveryPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    EXPECT_DEATH(sim.every(0, [] {}), "interval");
}

TEST(Simulator, BatchedRunMatchesStepping)
{
    // run() must replay the exact per-event order that single-stepping
    // produces, including same-cycle chains.
    const auto drive = [](Simulator &sim, std::vector<int> &order) {
        for (int i = 0; i < 8; ++i)
            sim.after(static_cast<Cycles>(1 + (i * 5) % 7),
                      [&order, i] { order.push_back(i); });
        sim.after(3, [&sim, &order] {
            order.push_back(100);
            sim.after(0, [&order] { order.push_back(101); });
        });
    };
    Simulator ran;
    std::vector<int> ran_order;
    drive(ran, ran_order);
    ran.run();

    Simulator stepped;
    std::vector<int> stepped_order;
    drive(stepped, stepped_order);
    while (stepped.step()) {
    }
    EXPECT_EQ(ran_order, stepped_order);
    EXPECT_EQ(ran.eventsRun(), stepped.eventsRun());
}

TEST(Simulator, SameCycleEventsFireInInsertionOrderAcrossComponents)
{
    // An SA retire, a VU retire, an HBM stream completion and two
    // control callbacks all land on cycle 100. They fire in the order
    // they were scheduled, whichever component scheduled them.
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    VectorUnit vu(sim, 0, 1024, 2);
    HbmModel hbm(sim, 1.0);
    std::vector<std::string> order;
    sim.at(100, [&] { order.push_back("control-1"); });
    vu.begin(0, 1, 100, 0,
             [&](FunctionalUnit &) { order.push_back("vu"); });
    hbm.startTransfer(100, [&] { order.push_back("hbm"); });
    sa.begin(1, 2, 60, 40,
             [&](FunctionalUnit &) { order.push_back("sa"); });
    sim.at(100, [&] { order.push_back("control-2"); });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "control-1", "vu", "hbm", "sa", "control-2"}));
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.eventsRun(), 5u);
}

TEST(Simulator, SameCycleScheduleFromCallbackFiresLast)
{
    // A callback scheduling at the current cycle appends behind
    // everything already pending at that cycle.
    Simulator sim;
    std::vector<int> order;
    sim.at(10, [&] {
        order.push_back(1);
        sim.at(10, [&] { order.push_back(4); });
    });
    sim.at(10, [&] { order.push_back(2); });
    sim.at(10, [&] { order.push_back(3); });
    sim.at(4, [&] { order.push_back(0); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, StepMatchesRunOnRandomProgram)
{
    // Single-stepping and the run loop execute the identical
    // sequence, with many same-cycle ties and both short and long
    // deltas.
    const auto program = [](Simulator &sim, std::vector<int> &order) {
        Rng rng(7);
        for (int i = 0; i < 64; ++i) {
            const auto when = static_cast<Cycles>(
                i % 3 == 0 ? rng.next() % 50
                           : rng.next() % (Cycles{1} << 16));
            sim.at(when, [&sim, &order, i] {
                order.push_back(i);
                if (i % 8 == 0)
                    sim.after(0, [&order, i] { order.push_back(-i); });
            });
        }
    };
    std::vector<int> stepped;
    {
        Simulator sim;
        program(sim, stepped);
        while (sim.step()) {
        }
    }
    std::vector<int> ran;
    {
        Simulator sim;
        program(sim, ran);
        sim.run();
    }
    EXPECT_EQ(stepped, ran);
    EXPECT_EQ(ran.size(), 72u);
}

TEST(Simulator, RunUntilMovesClockToLimitBetweenEvents)
{
    Simulator sim;
    int fired = 0;
    sim.at(10, [&] { ++fired; });
    sim.at(40, [&] { ++fired; });
    sim.runUntil(25);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 25u);
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, CancelDropsOnlyTheCancelledEvents)
{
    Simulator sim;
    std::vector<int> fired;
    const EventId a = sim.at(20, [&] { fired.push_back(1); });
    sim.at(20, [&] { fired.push_back(2); });
    const EventId c = sim.at(20, [&] { fired.push_back(3); });
    sim.at(30, [&] { fired.push_back(4); });
    sim.cancel(a);
    sim.cancel(c);
    sim.cancel(c);        // double cancel: harmless
    sim.cancel(kNoEvent); // no event: harmless
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{2, 4}));
    EXPECT_EQ(sim.eventsRun(), 2u);
    sim.cancel(a); // already fired slot: harmless
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, PeriodicsTickUnderRunUntilWithOtherTraffic)
{
    Simulator sim;
    std::vector<Cycles> ticks;
    sim.every(50, [&] { ticks.push_back(sim.now()); });
    struct Hop
    {
        Simulator *sim;
        int left;
        void
        operator()() const
        {
            if (left > 0)
                sim->after(30, Hop{sim, left - 1});
        }
    };
    sim.at(10, Hop{&sim, 12});
    sim.runUntil(220);
    EXPECT_EQ(ticks, (std::vector<Cycles>{50, 100, 150, 200}));
    EXPECT_EQ(sim.now(), 220u);
}

} // namespace
} // namespace v10
