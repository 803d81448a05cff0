/**
 * @file
 * Randomized stress tests: arbitrary tenant mixes, schedulers, FU
 * counts, and slice settings must always terminate and uphold the
 * simulator's invariants — utilization bounds, bucket partitioning,
 * per-tenant cycle conservation, and latency lower bounds. A
 * parallel-mode variant re-checks the same invariants when the runs
 * are fanned out through SweepRunner and asserts the fan-out changes
 * nothing.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "metrics/stat_registry.h"
#include "sim/fault_plan.h"
#include "v10/experiment.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"

namespace v10 {
namespace {

/** Draw a random 2-5 tenant mix from the zoo. */
std::vector<TenantRequest>
randomTenants(Rng &rng)
{
    const auto &zoo = modelZoo();
    const std::size_t n = 2 + rng.uniformInt(4);
    std::vector<TenantRequest> tenants;
    for (std::size_t i = 0; i < n; ++i) {
        TenantRequest req;
        req.model = zoo[rng.uniformInt(zoo.size())].abbrev;
        req.priority = 0.25 + rng.uniform() * 2.0;
        tenants.push_back(req);
    }
    return tenants;
}

/** Draw a random scheduler kind. */
SchedulerKind
randomKind(Rng &rng)
{
    const SchedulerKind kinds[] = {
        SchedulerKind::Pmt, SchedulerKind::V10Base,
        SchedulerKind::V10Fair, SchedulerKind::V10Full,
        SchedulerKind::Prema};
    return kinds[rng.uniformInt(5)];
}

/**
 * The simulator's invariants, checked on one run result. @p runner
 * is only consulted for compiled workloads (latency floors).
 */
void
checkInvariants(const NpuConfig &cfg, ExperimentRunner &runner,
                SchedulerKind kind,
                const std::vector<TenantRequest> &tenants,
                const RunStats &stats)
{
    const std::size_t n = tenants.size();
    ASSERT_EQ(stats.workloads.size(), n);
    EXPECT_GT(stats.windowCycles, 0u);

    // Utilizations are fractions.
    EXPECT_GE(stats.saUtil, 0.0);
    EXPECT_LE(stats.saUtil, 1.0 + 1e-9);
    EXPECT_GE(stats.vuUtil, 0.0);
    EXPECT_LE(stats.vuUtil, 1.0 + 1e-9);
    EXPECT_GE(stats.hbmUtil, 0.0);
    EXPECT_LE(stats.hbmUtil, 1.0 + 1e-6);

    // Overlap buckets partition the window.
    EXPECT_NEAR(stats.overlapBothFrac + stats.saOnlyFrac +
                    stats.vuOnlyFrac + stats.idleFrac,
                1.0, 1e-9);

    // Task-level schedulers never overlap.
    if (kind == SchedulerKind::Pmt || kind == SchedulerKind::Prema) {
        EXPECT_DOUBLE_EQ(stats.overlapBothFrac, 0.0);
    }

    // Per-tenant attribution sums to the aggregate.
    double sa_sum = 0.0;
    double vu_sum = 0.0;
    for (const auto &w : stats.workloads) {
        sa_sum += w.saUtil;
        vu_sum += w.vuUtil;
        EXPECT_GE(w.requests, 3u) << w.label;
        EXPECT_GT(w.avgLatencyUs, 0.0) << w.label;
        EXPECT_GE(w.p95LatencyUs, w.avgLatencyUs * 0.5) << w.label;
        EXPECT_GT(w.normalizedProgress, 0.0) << w.label;
        EXPECT_LT(w.normalizedProgress, 1.2) << w.label;
    }
    EXPECT_NEAR(sa_sum, stats.saUtil, 1e-9);
    EXPECT_NEAR(vu_sum, stats.vuUtil, 1e-9);

    // STP cannot exceed the number of tenants (each is bounded by
    // its dedicated-core rate).
    EXPECT_LE(stats.stp(), static_cast<double>(n) * 1.2);

    // A tenant's latency is at least its stall-free compute time.
    for (std::size_t i = 0; i < n; ++i) {
        const Workload &wl =
            runner.workload(tenants[i].model, tenants[i].batch);
        const double floor_us =
            cfg.cyclesToUs(wl.computeCycles()) * 0.99;
        EXPECT_GE(stats.workloads[i].avgLatencyUs, floor_us)
            << stats.workloads[i].label;
    }
}

/** One randomized configuration per seed. */
class StressSeed : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(StressSeed, InvariantsHoldUnderRandomConfigs)
{
    Rng rng(GetParam());

    // Random hardware.
    const std::uint32_t fus = 1u << rng.uniformInt(3); // 1, 2, or 4
    NpuConfig cfg = NpuConfig{}.scaledForFus(fus, fus);
    cfg.enforceHbmFit = false;
    if (rng.uniform() < 0.3)
        cfg.timeSlice = 4096u << rng.uniformInt(6);

    const std::vector<TenantRequest> tenants = randomTenants(rng);
    const SchedulerKind kind = randomKind(rng);

    ExperimentRunner runner(cfg);
    const RunStats stats = runner.run(kind, tenants, 3, 1);
    checkInvariants(cfg, runner, kind, tenants, stats);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, StressSeed,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(StressParallel, InvariantsHoldUnderParallelSweep)
{
    // Same class of random cells, but fanned out through SweepRunner
    // worker threads over a shared runner: every result must uphold
    // the invariants AND match its serial twin bit-for-bit.
    const NpuConfig cfg; // fixed hardware so the caches are shared
    Rng rng(0x57E55u);
    std::vector<SweepCell> cells;
    for (int i = 0; i < 8; ++i) {
        SweepCell cell;
        cell.kind = randomKind(rng);
        cell.tenants = randomTenants(rng);
        cell.requests = 3;
        cell.warmup = 1;
        cells.push_back(std::move(cell));
    }

    ExperimentRunner serial_runner(cfg);
    SweepRunner serial(serial_runner, 1);
    const std::vector<RunStats> expected = serial.run(cells);

    ExperimentRunner parallel_runner(cfg);
    SweepRunner parallel(parallel_runner, 4);
    const std::vector<RunStats> got = parallel.run(cells);

    ASSERT_EQ(got.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        checkInvariants(cfg, parallel_runner, cells[i].kind,
                        cells[i].tenants, got[i]);
        // The parallel fan-out changes nothing.
        EXPECT_EQ(got[i].windowCycles, expected[i].windowCycles);
        EXPECT_EQ(got[i].saUtil, expected[i].saUtil);
        EXPECT_EQ(got[i].vuUtil, expected[i].vuUtil);
        EXPECT_EQ(got[i].idleFrac, expected[i].idleFrac);
        ASSERT_EQ(got[i].workloads.size(),
                  expected[i].workloads.size());
        for (std::size_t w = 0; w < got[i].workloads.size(); ++w) {
            EXPECT_EQ(got[i].workloads[w].avgLatencyUs,
                      expected[i].workloads[w].avgLatencyUs);
            EXPECT_EQ(got[i].workloads[w].normalizedProgress,
                      expected[i].workloads[w].normalizedProgress);
        }
    }
}

TEST(StressParallel, FaultInjectionSnapshotsBitIdentical)
{
    // Randomized cells with fault injection armed and a frozen
    // StatRegistry per cell: the serial and parallel snapshots must
    // match on every (path, value) pair, exactly.
    const auto plan_result =
        FaultPlan::parse("hbm-stall:rate=0.05,sa-corrupt:rate=0.02");
    ASSERT_TRUE(plan_result.ok()) << plan_result.error().toString();
    const FaultPlan plan = plan_result.value();

    const NpuConfig cfg;
    Rng rng(0xFA17u);
    const auto makeCells =
        [&](std::vector<std::unique_ptr<StatRegistry>> &registries,
            Rng grid_rng) {
            std::vector<SweepCell> cells;
            for (int i = 0; i < 6; ++i) {
                SweepCell cell;
                cell.kind = randomKind(grid_rng);
                cell.tenants = randomTenants(grid_rng);
                cell.requests = 3;
                cell.warmup = 1;
                cell.options.resilience.faults = &plan;
                registries.push_back(
                    std::make_unique<StatRegistry>());
                cell.options.stats = registries.back().get();
                cells.push_back(std::move(cell));
            }
            return cells;
        };

    std::vector<std::unique_ptr<StatRegistry>> serial_registries;
    ExperimentRunner serial_runner(cfg);
    SweepRunner serial(serial_runner, 1);
    const std::vector<RunStats> expected =
        serial.run(makeCells(serial_registries, rng));

    std::vector<std::unique_ptr<StatRegistry>> parallel_registries;
    ExperimentRunner parallel_runner(cfg);
    SweepRunner parallel(parallel_runner, 4);
    const std::vector<RunStats> got_parallel =
        parallel.run(makeCells(parallel_registries, rng));

    ASSERT_EQ(expected.size(), got_parallel.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const auto a = serial_registries[i]->snapshot();
        const auto b = parallel_registries[i]->snapshot();
        ASSERT_FALSE(a.empty());
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(a[s].first, b[s].first);
            EXPECT_EQ(a[s].second, b[s].second)
                << "stat " << a[s].first << " diverged";
        }
        EXPECT_EQ(expected[i].windowCycles,
                  got_parallel[i].windowCycles);
    }
}

TEST(StressDeterminism, IdenticalSeedsIdenticalRuns)
{
    for (std::uint64_t seed : {3u, 11u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        EXPECT_EQ(rng_a.next(), rng_b.next());
    }
    // Two full experiment repetitions agree bit-for-bit.
    ExperimentRunner r1;
    ExperimentRunner r2;
    const RunStats a = r1.runPair(SchedulerKind::V10Full, "ENet",
                                  "SMask", 1.0, 1.0, 5);
    const RunStats b = r2.runPair(SchedulerKind::V10Full, "ENet",
                                  "SMask", 1.0, 1.0, 5);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_DOUBLE_EQ(a.saUtil, b.saUtil);
    EXPECT_DOUBLE_EQ(a.workloads[1].p95LatencyUs,
                     b.workloads[1].p95LatencyUs);
}

} // namespace
} // namespace v10
