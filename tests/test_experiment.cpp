/**
 * @file
 * Tests for the experiment runner and the MultiTenantNpu facade:
 * caching, normalization, batch resolution, and API error handling.
 */

#include <gtest/gtest.h>

#include "v10/multi_tenant_npu.h"

namespace v10 {
namespace {

TEST(ExperimentRunner, SingleTenantNormalizedToOne)
{
    ExperimentRunner runner;
    const RunStats &ref = runner.singleTenant("MNST", 32);
    ASSERT_EQ(ref.workloads.size(), 1u);
    EXPECT_DOUBLE_EQ(ref.workloads[0].normalizedProgress, 1.0);
    EXPECT_GT(runner.singleTenantRps("MNST", 32), 0.0);
}

TEST(ExperimentRunner, SingleTenantCacheIsStable)
{
    ExperimentRunner runner;
    const RunStats &a = runner.singleTenant("DLRM", 32);
    const RunStats &b = runner.singleTenant("DLRM", 32);
    EXPECT_EQ(&a, &b); // same cached object
}

TEST(ExperimentRunner, ResolveBatchZeroUsesReference)
{
    ExperimentRunner runner;
    EXPECT_EQ(runner.resolveBatch("BERT", 0), 32);
    EXPECT_EQ(runner.resolveBatch("SMask", 0), 8);
    EXPECT_EQ(runner.resolveBatch("MRCN", 0), 16);
    EXPECT_EQ(runner.resolveBatch("BERT", 64), 64);
}

TEST(ExperimentRunner, PairRunFillsNormalizedProgress)
{
    ExperimentRunner runner;
    const RunStats stats =
        runner.runPair(SchedulerKind::V10Full, "BERT", "NCF", 1.0,
                       1.0, 5);
    ASSERT_EQ(stats.workloads.size(), 2u);
    for (const auto &w : stats.workloads) {
        EXPECT_GT(w.normalizedProgress, 0.1);
        EXPECT_LT(w.normalizedProgress, 1.2);
    }
    EXPECT_GT(stats.stp(), 1.0);
    EXPECT_GT(stats.worstProgress(), 0.0);
}

TEST(ExperimentRunner, WorkloadCacheReusesCompilation)
{
    ExperimentRunner runner;
    const Workload &a = runner.workload("RsNt", 32);
    const Workload &b = runner.workload("ResNet", 32);
    EXPECT_EQ(&a, &b); // name and abbreviation hit the same entry
}

TEST(MultiTenantNpu, FacadeRunsPair)
{
    MultiTenantNpu npu;
    npu.addWorkload("BERT");
    npu.addWorkload("NCF", 32, 1.0);
    EXPECT_EQ(npu.workloads().size(), 2u);
    const RunStats stats = npu.run(5, 1);
    EXPECT_EQ(stats.workloads.size(), 2u);
    EXPECT_GT(stats.stp(), 1.0);
    EXPECT_FALSE(stats.summary().empty());
}

TEST(MultiTenantNpu, SchedulerSelection)
{
    MultiTenantNpu npu;
    EXPECT_EQ(npu.scheduler(), SchedulerKind::V10Full);
    npu.setScheduler(SchedulerKind::Pmt);
    EXPECT_EQ(npu.scheduler(), SchedulerKind::Pmt);
    npu.addWorkload("ENet");
    npu.addWorkload("RsNt");
    const RunStats stats = npu.run(4, 1);
    EXPECT_DOUBLE_EQ(stats.overlapBothFrac, 0.0); // PMT never overlaps
}

TEST(MultiTenantNpu, ClearWorkloads)
{
    MultiTenantNpu npu;
    npu.addWorkload("BERT");
    npu.clearWorkloads();
    EXPECT_TRUE(npu.workloads().empty());
}

TEST(MultiTenantNpu, TimeSliceOverride)
{
    MultiTenantNpu npu;
    npu.setTimeSlice(4096);
    npu.addWorkload("BERT");
    npu.addWorkload("DLRM");
    const RunStats stats = npu.run(4, 1);
    EXPECT_GT(stats.workloads[0].preemptions +
                  stats.workloads[1].preemptions,
              0u);
}

TEST(MultiTenantNpu, SingleTenantReference)
{
    MultiTenantNpu npu;
    const RunStats &ref = npu.singleTenantReference("MNST");
    EXPECT_EQ(ref.workloads[0].requests,
              ExperimentRunner::kDefaultRequests);
}

TEST(MultiTenantNpuDeath, ApiMisuse)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MultiTenantNpu npu;
    EXPECT_DEATH(npu.addWorkload("NotAModel"), "unknown model");
    EXPECT_DEATH(npu.run(), "no workloads");
}

TEST(SchedulerFactory, NamesRoundTrip)
{
    for (SchedulerKind kind : allSchedulerKinds())
        EXPECT_EQ(schedulerKindFromName(schedulerKindName(kind)),
                  kind);
    EXPECT_EQ(allSchedulerKinds().size(), 4u);
    EXPECT_TRUE(reservesSaContexts(SchedulerKind::V10Full));
    EXPECT_FALSE(reservesSaContexts(SchedulerKind::Pmt));
    EXPECT_FALSE(reservesSaContexts(SchedulerKind::V10Base));
}

TEST(SchedulerFactory, UnknownNameIsNullopt)
{
    EXPECT_FALSE(schedulerKindFromName("V11").has_value());
    EXPECT_FALSE(schedulerKindFromName("").has_value());
}

} // namespace
} // namespace v10
