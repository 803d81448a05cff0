/**
 * @file
 * The Fig. 12 scenario as an executable test: two hand-built
 * workloads with complementary SA/VU utilization where Workload 1's
 * long SA operators block Workload 2's short SA operators (which
 * gate its VU operators). Without preemption utilization collapses
 * and Workload 2 starves; with operator preemption both recover —
 * the paper's §3.3 motivating example.
 */

#include <gtest/gtest.h>

#include "npu/npu_core.h"
#include "sched/op_scheduler.h"
#include "sim/simulator.h"
#include "workload/model_zoo.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace v10 {
namespace {

/** Build an operator with explicit cycles (no gaps, tiny DMA). */
TensorOperator
makeOp(OpId id, OpKind kind, Cycles cycles)
{
    TensorOperator op;
    op.id = id;
    op.kind = kind;
    op.name = std::string(kind == OpKind::SA ? "sa" : "vu") + "." +
              std::to_string(id);
    op.computeCycles = cycles;
    op.saRows = kind == OpKind::SA ? cycles - 384 : 0;
    op.vuElements = kind == OpKind::VU ? cycles * 1024 : 0;
    op.flops = 1.0;
    op.dmaBytes = 1024; // negligible: isolate the scheduling effect
    op.workingSetBytes = 1024;
    if (id > 0)
        op.deps = {static_cast<std::uint32_t>(id - 1)};
    return op;
}

RequestTrace
buildTrace(const std::vector<TensorOperator> &ops)
{
    RequestTrace trace;
    trace.ops = ops;
    for (const auto &op : trace.ops) {
        if (op.kind == OpKind::SA)
            trace.saCycles += op.computeCycles;
        else
            trace.vuCycles += op.computeCycles;
        trace.totalFlops += op.flops;
        trace.totalDmaBytes += op.dmaBytes;
    }
    return trace;
}

/**
 * Fig. 12's structure scaled to simulator granularity:
 *  - Workload 1: long SA ops, short VU ops (SA-heavy);
 *  - Workload 2: short SA ops feeding long VU ops (VU-heavy).
 */
Workload
workload1()
{
    // Long SA operators (1M cycles ~ 1.4 ms, cf. BERT/ResNet-RS in
    // Table 1) with a little VU post-processing.
    std::vector<TensorOperator> ops;
    for (OpId i = 0; i < 8; ++i)
        ops.push_back(makeOp(
            i, i % 4 == 3 ? OpKind::VU : OpKind::SA,
            i % 4 == 3 ? 30000 : 1000000));
    return Workload(findModel("BERT"), 32, buildTrace(ops));
}

Workload
workload2()
{
    // Short SA operators gating medium VU operators: each VU op
    // depends on the SA op before it, so blocking the 20k-cycle SA
    // op behind a 1M-cycle one idles the VU (Fig. 12b).
    std::vector<TensorOperator> ops;
    for (OpId i = 0; i < 8; ++i)
        ops.push_back(makeOp(i,
                             i % 2 == 0 ? OpKind::SA : OpKind::VU,
                             i % 2 == 0 ? 20000 : 100000));
    return Workload(findModel("DLRM"), 32, buildTrace(ops));
}

RunStats
runScenario(bool preemption)
{
    const NpuConfig cfg;
    const Workload w1 = workload1();
    const Workload w2 = workload2();
    Simulator sim;
    NpuCore core(sim, cfg, 2, preemption);
    OperatorScheduler::Options opts;
    opts.policy = OperatorScheduler::PolicyKind::Priority;
    opts.preemption = preemption;
    OperatorScheduler sched(
        sim, core, {TenantSpec{&w1, 1.0}, TenantSpec{&w2, 1.0}},
        opts);
    return sched.run(8, 2);
}

TEST(Fig12, PreemptionUnblocksDependentVuOps)
{
    const RunStats without = runScenario(false);
    const RunStats with = runScenario(true);

    // Fig. 12b vs 12c: preemption raises both SA and VU utilization
    // by letting Workload 2's short SA ops (the dependencies of its
    // VU ops) jump ahead of Workload 1's long SA ops.
    EXPECT_GT(with.vuUtil, without.vuUtil * 1.15);
    EXPECT_GE(with.saUtil, without.saUtil * 0.9);
    EXPECT_GT(with.overlapBothFrac, without.overlapBothFrac);
}

TEST(Fig12, PreemptionRescuesWorkload2Latency)
{
    const RunStats without = runScenario(false);
    const RunStats with = runScenario(true);
    // Workload 2 (short ops) is the starvation victim.
    EXPECT_LT(with.workloads[1].avgLatencyUs,
              without.workloads[1].avgLatencyUs * 0.8);
    // Workload 1 pays only slightly (§5.2: "without significant
    // impacts on BERT").
    EXPECT_LT(with.workloads[0].avgLatencyUs,
              without.workloads[0].avgLatencyUs * 1.4);
}

TEST(Fig12, HandBuiltTraceRoundTripsThroughWorkload)
{
    const Workload w1 = workload1();
    EXPECT_EQ(w1.trace().ops.size(), 8u);
    EXPECT_GT(w1.saTimeFrac(), 0.8);
    const Workload w2 = workload2();
    EXPECT_LT(w2.saTimeFrac(), 0.2);
}

TEST(WorkloadFromTraceFile, RoundTrip)
{
    const NpuConfig cfg;
    const Workload original = Workload::fromName("NCF", 0, cfg);
    const std::string path =
        ::testing::TempDir() + "/v10_wl_roundtrip.txt";
    ASSERT_TRUE(saveTraceFile(path,
                              TraceHeader{original.profile().abbrev,
                                          original.batch()},
                              original.trace()));
    const Workload loaded = Workload::fromTraceFile(path).take();
    EXPECT_EQ(loaded.label(), original.label());
    EXPECT_EQ(loaded.computeCycles(), original.computeCycles());
    EXPECT_EQ(loaded.trace().ops.size(),
              original.trace().ops.size());
}

TEST(WorkloadFromTraceDeath, EmptyTraceRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(Workload(findModel("BERT"), 32, RequestTrace{}),
                 "empty");
}

} // namespace
} // namespace v10
