/**
 * @file
 * Tests for the functional-unit base model: begin/complete timing,
 * preemption with partial-compute accounting, overhead accounting,
 * observer transitions, and the SA/VU timing helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "npu/systolic_array.h"
#include "npu/vector_unit.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

class RecordingObserver : public FuObserver
{
  public:
    void
    fuBusyChanged(const FunctionalUnit &, bool busy) override
    {
        transitions.push_back(busy);
    }
    std::vector<bool> transitions;
};

TEST(FunctionalUnit, CompletionAfterComputePlusOverhead)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    Cycles done_at = 0;
    sa.begin(0, 1, 1000, 384,
             [&](FunctionalUnit &) { done_at = sim.now(); });
    EXPECT_TRUE(sa.busy());
    EXPECT_EQ(sa.workload(), 0u);
    sim.run();
    EXPECT_EQ(done_at, 1384u);
    EXPECT_FALSE(sa.busy());
    EXPECT_EQ(sa.busyComputeCycles(), 1000u);
    EXPECT_EQ(sa.overheadCycles(), 384u);
    EXPECT_EQ(sa.busyComputeFor(0), 1000u);
    EXPECT_EQ(sa.overheadFor(0), 384u);
    EXPECT_EQ(sa.workload(), kNoWorkload);
}

TEST(FunctionalUnit, PreemptReturnsRemainingCompute)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    bool completed = false;
    sa.begin(3, 1, 1000, 0,
             [&](FunctionalUnit &) { completed = true; });
    sim.runUntil(400);
    const Cycles remaining = sa.preempt();
    EXPECT_EQ(remaining, 600u);
    EXPECT_FALSE(sa.busy());
    EXPECT_EQ(sa.busyComputeFor(3), 400u);
    sim.run();
    EXPECT_FALSE(completed); // callback cancelled
}

TEST(FunctionalUnit, PreemptDuringOverheadLosesNoCompute)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    sa.begin(1, 1, 1000, 384, nullptr);
    sim.runUntil(100); // still inside the overhead phase
    const Cycles remaining = sa.preempt();
    EXPECT_EQ(remaining, 1000u);
    EXPECT_EQ(sa.busyComputeFor(1), 0u);
    EXPECT_EQ(sa.overheadFor(1), 100u);
}

TEST(FunctionalUnit, InflightIntrospection)
{
    Simulator sim;
    VectorUnit vu(sim, 0, 1024, 2);
    vu.begin(2, 9, 500, 128, nullptr);
    sim.runUntil(328);
    EXPECT_EQ(vu.inflightComputeDone(), 200u);
    EXPECT_EQ(vu.inflightComputeTotal(), 500u);
    EXPECT_EQ(vu.inflightStart(), 0u);
    EXPECT_EQ(vu.opId(), 9u);
    vu.preempt();
}

TEST(FunctionalUnit, ObserverSeesBusyTransitions)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    RecordingObserver obs;
    sa.setObserver(&obs);
    sa.begin(0, 1, 10, 0, nullptr);
    sim.run();
    ASSERT_EQ(obs.transitions.size(), 2u);
    EXPECT_TRUE(obs.transitions[0]);
    EXPECT_FALSE(obs.transitions[1]);
}

TEST(FunctionalUnit, PerWorkloadAttribution)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    sa.begin(0, 1, 100, 0, nullptr);
    sim.run();
    sa.begin(1, 2, 300, 0, nullptr);
    sim.run();
    EXPECT_EQ(sa.busyComputeFor(0), 100u);
    EXPECT_EQ(sa.busyComputeFor(1), 300u);
    EXPECT_EQ(sa.busyComputeFor(7), 0u);
    EXPECT_EQ(sa.busyComputeCycles(), 400u);
    sa.resetStats();
    EXPECT_EQ(sa.busyComputeCycles(), 0u);
    EXPECT_EQ(sa.busyComputeFor(1), 0u);
}

TEST(FunctionalUnitDeath, MisuseIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    EXPECT_DEATH(sa.preempt(), "idle");
    sa.begin(0, 1, 10, 0, nullptr);
    EXPECT_DEATH(sa.begin(1, 2, 10, 0, nullptr), "busy");
    sim.run();
    EXPECT_DEATH(sa.begin(0, 1, 0, 0, nullptr), "zero-cycle");
    EXPECT_DEATH(sa.begin(kNoWorkload, 1, 10, 0, nullptr),
                 "without a workload");
}

TEST(SystolicArrayDeath, BadDimPanics)
{
    // NpuConfig::check rejects these from input, so the constructor
    // treats them as a caller bug.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    EXPECT_DEATH(SystolicArray(sim, 0, 0), "positive multiple of 8");
    EXPECT_DEATH(SystolicArray(sim, 0, 12), "got 12");
}

TEST(VectorUnitDeath, ZeroLanesOrOpsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    EXPECT_DEATH(VectorUnit(sim, 0, 0, 4), "lanes and opsPerLane");
    EXPECT_DEATH(VectorUnit(sim, 0, 128, 0), "got 128 and 0");
}

TEST(SystolicArray, TimingModelInversion)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    EXPECT_EQ(sa.opCycles(1000), 128u + 1000 + 256);
    EXPECT_EQ(sa.rowsForCycles(sa.opCycles(1000)), 1000u);
    EXPECT_EQ(sa.rowsForCycles(10), 1u); // floor at one row
    EXPECT_EQ(sa.minOpCycles(), 385u);
    EXPECT_DOUBLE_EQ(sa.peakFlopsPerCycle(), 32768.0);
}

TEST(SystolicArray, ContextModelMatchesPaper)
{
    Simulator sim;
    SystolicArray sa(sim, 0, 128);
    EXPECT_EQ(sa.contextSwitchCycles(), 384u);
    EXPECT_EQ(sa.contextBytes(), 96u * 1024);
    EXPECT_EQ(sa.naiveContextBytes(), 128u * 1024);
    // §3.3: 25% smaller than the naive drain-everything approach.
    EXPECT_DOUBLE_EQ(static_cast<double>(sa.contextBytes()) /
                         static_cast<double>(sa.naiveContextBytes()),
                     0.75);
}

TEST(VectorUnit, TimingHelpers)
{
    Simulator sim;
    VectorUnit vu(sim, 0, 1024, 2);
    EXPECT_DOUBLE_EQ(vu.peakFlopsPerCycle(), 2048.0);
    EXPECT_EQ(vu.opCyclesForFlops(4096.0), 2u);
    EXPECT_EQ(vu.opCyclesForFlops(1.0), 1u);
    EXPECT_EQ(vu.opCyclesForFlops(0.0), 1u);
    EXPECT_DOUBLE_EQ(vu.flopsForCycles(10), 20480.0);
    EXPECT_EQ(vu.contextSwitchCycles(), 128u);
    EXPECT_GT(vu.contextBytes(), 128u * 1024); // 32 vregs + PC
}

TEST(FuKind, Names)
{
    EXPECT_STREQ(fuKindName(FunctionalUnit::Kind::SA), "SA");
    EXPECT_STREQ(fuKindName(FunctionalUnit::Kind::VU), "VU");
}

} // namespace
} // namespace v10
