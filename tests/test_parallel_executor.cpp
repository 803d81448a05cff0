/**
 * @file
 * The parallel execution layer's contract tests: ParallelExecutor
 * unit behavior (ordering, exceptions, serial fast path) and the
 * determinism proof — the same seeded sweep run with jobs=1 and
 * jobs=8 must produce bit-identical RunStats for every cell, for
 * every scheduler kind.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/parallel_executor.h"
#include "metrics/stat_registry.h"
#include "sim/fault_plan.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"

namespace v10 {
namespace {

// --- ParallelExecutor unit tests. ---

TEST(ParallelExecutor, SerialModeSpawnsNoThreadsAndRunsInline)
{
    ParallelExecutor exec(1);
    EXPECT_EQ(exec.jobs(), 1u);
    std::vector<std::size_t> order;
    // Serial execution preserves submission order exactly.
    exec.forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutor, MapCollectsResultsBySubmissionIndex)
{
    for (std::size_t jobs : {1u, 2u, 8u}) {
        ParallelExecutor exec(jobs);
        const std::vector<int> out = exec.map<int>(
            64, [](std::size_t i) { return static_cast<int>(i * i); });
        ASSERT_EQ(out.size(), 64u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
}

TEST(ParallelExecutor, RunsEveryTaskExactlyOnce)
{
    ParallelExecutor exec(8);
    std::atomic<int> count{0};
    exec.forEach(1000, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ParallelExecutor, PropagatesTaskExceptions)
{
    for (std::size_t jobs : {1u, 4u}) {
        ParallelExecutor exec(jobs);
        EXPECT_THROW(exec.forEach(16,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                     std::runtime_error);
        // The pool survives a throwing batch.
        std::atomic<int> count{0};
        exec.forEach(4, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 4);
    }
}

TEST(ParallelExecutor, ZeroCountIsANoop)
{
    ParallelExecutor exec(4);
    exec.forEach(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelExecutor, ParseJobs)
{
    EXPECT_EQ(ParallelExecutor::parseJobs("1").value(), 1u);
    EXPECT_EQ(ParallelExecutor::parseJobs("8").value(), 8u);
    EXPECT_EQ(ParallelExecutor::parseJobs("auto").value(),
              ParallelExecutor::hardwareJobs());
    EXPECT_GE(ParallelExecutor::hardwareJobs(), 1u);
}

TEST(ParallelExecutor, ParseJobsRejectsBadValues)
{
    // A bad value is an error the caller reports, not an abort.
    const auto rejects = [](const std::string &value,
                            const std::string &why) {
        const Result<std::size_t> r = ParallelExecutor::parseJobs(value);
        ASSERT_FALSE(r.ok()) << value;
        EXPECT_NE(r.error().message.find(why), std::string::npos)
            << r.error().message;
        EXPECT_NE(r.error().message.find("--jobs"), std::string::npos);
    };
    rejects("abc", "positive");
    rejects("-3", "positive");
    rejects("4x", "positive");
    rejects("", "positive");
    rejects("999999999", "limit");
    rejects("1025", "limit");
    // 0 means auto; 1024 is the largest pool.
    EXPECT_EQ(ParallelExecutor::parseJobs("0").value(),
              ParallelExecutor::hardwareJobs());
    EXPECT_EQ(ParallelExecutor::parseJobs("1024").value(), 1024u);
}

// --- Thread-safe logging under ParallelExecutor hammering. ---

TEST(ParallelExecutor, ConcurrentLogLinesNeverInterleave)
{
    // Restore the ambient level no matter how the test exits.
    struct LevelGuard
    {
        LogLevel saved = logLevel();
        ~LevelGuard() { setLogLevel(saved); }
    } guard;
    setLogLevel(LogLevel::Info);

    constexpr std::size_t kMessages = 400;
    ::testing::internal::CaptureStderr();
    ParallelExecutor exec(8);
    exec.forEach(kMessages, [](std::size_t i) {
        inform("hammer message ", i, " from a worker thread");
    });
    const std::string captured =
        ::testing::internal::GetCapturedStderr();

    // Every line must be one complete message: the writer holds a
    // mutex across the fprintf, so no line may be split or merged.
    const std::regex line_re(
        "^info: hammer message [0-9]+ from a worker thread$");
    std::istringstream in(captured);
    std::string line;
    std::size_t lines = 0;
    std::vector<bool> seen(kMessages, false);
    while (std::getline(in, line)) {
        ASSERT_TRUE(std::regex_match(line, line_re))
            << "mangled log line: '" << line << "'";
        const std::size_t idx = static_cast<std::size_t>(
            std::stoul(line.substr(std::string("info: hammer message ")
                                       .size())));
        ASSERT_LT(idx, kMessages);
        EXPECT_FALSE(seen[idx]) << "message " << idx << " logged twice";
        seen[idx] = true;
        ++lines;
    }
    EXPECT_EQ(lines, kMessages);
}

// --- Determinism proof: jobs=1 == jobs=8, bit for bit. ---

/** Assert two per-tenant records are bit-identical. */
void
expectWorkloadStatsEq(const WorkloadRunStats &a,
                      const WorkloadRunStats &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.p95LatencyUs, b.p95LatencyUs);
    EXPECT_EQ(a.requestsPerSec, b.requestsPerSec);
    EXPECT_EQ(a.saComputeCycles, b.saComputeCycles);
    EXPECT_EQ(a.vuComputeCycles, b.vuComputeCycles);
    EXPECT_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.saUtil, b.saUtil);
    EXPECT_EQ(a.vuUtil, b.vuUtil);
    EXPECT_EQ(a.normalizedProgress, b.normalizedProgress);
    EXPECT_EQ(a.ctxOverheadFrac, b.ctxOverheadFrac);
}

/** Assert two frozen StatRegistry snapshots are byte-identical:
 * same paths in the same order, exactly equal values. */
void
expectSnapshotEq(
    const std::vector<std::pair<std::string, double>> &a,
    const std::vector<std::pair<std::string, double>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].second, b[i].second)
            << "stat " << a[i].first << " diverged";
    }
}

/** Assert two run results are bit-identical (EXPECT_EQ on doubles
 * is exact equality — deliberately, that is the guarantee). */
void
expectRunStatsEq(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.windowSeconds, b.windowSeconds);
    EXPECT_EQ(a.saUtil, b.saUtil);
    EXPECT_EQ(a.vuUtil, b.vuUtil);
    EXPECT_EQ(a.combinedUtil, b.combinedUtil);
    EXPECT_EQ(a.hbmUtil, b.hbmUtil);
    EXPECT_EQ(a.flopsUtil, b.flopsUtil);
    EXPECT_EQ(a.overlapBothFrac, b.overlapBothFrac);
    EXPECT_EQ(a.saOnlyFrac, b.saOnlyFrac);
    EXPECT_EQ(a.vuOnlyFrac, b.vuOnlyFrac);
    EXPECT_EQ(a.idleFrac, b.idleFrac);
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    for (std::size_t i = 0; i < a.workloads.size(); ++i)
        expectWorkloadStatsEq(a.workloads[i], b.workloads[i]);
}

/** The sweep grid used by the determinism proof: mixed tenant
 * counts, priorities, and batch overrides. */
std::vector<SweepCell>
determinismGrid(SchedulerKind kind)
{
    std::vector<SweepCell> cells;
    const std::vector<std::vector<TenantRequest>> mixes = {
        {TenantRequest{"BERT", 0, 1.0}, TenantRequest{"NCF", 0, 1.0}},
        {TenantRequest{"ENet", 0, 0.7},
         TenantRequest{"SMask", 0, 0.3}},
        {TenantRequest{"DLRM", 0, 1.0}, TenantRequest{"RsNt", 0, 2.0},
         TenantRequest{"MNST", 0, 1.0}},
        {TenantRequest{"TFMR", 16, 1.0},
         TenantRequest{"NCF", 64, 1.0}},
    };
    for (const auto &mix : mixes) {
        SweepCell cell;
        cell.kind = kind;
        cell.tenants = mix;
        cell.requests = 4;
        cell.warmup = 1;
        cells.push_back(std::move(cell));
    }
    return cells;
}

class SweepDeterminism
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(SweepDeterminism, ParallelSweepBitIdenticalToSerial)
{
    const SchedulerKind kind = GetParam();
    const std::vector<SweepCell> cells = determinismGrid(kind);

    // Fresh runner per mode: the caches start cold both times, so
    // the parallel path also proves its cache computations produce
    // the same values as the serial ones.
    ExperimentRunner serial_runner;
    SweepRunner serial(serial_runner, 1);
    const std::vector<RunStats> expected = serial.run(cells);

    ExperimentRunner parallel_runner;
    SweepRunner parallel(parallel_runner, 8);
    ASSERT_EQ(parallel.jobs(), 8u);
    const std::vector<RunStats> got = parallel.run(cells);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectRunStatsEq(expected[i], got[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SweepDeterminism,
    ::testing::Values(SchedulerKind::Pmt, SchedulerKind::Prema,
                      SchedulerKind::V10Base, SchedulerKind::V10Fair,
                      SchedulerKind::V10Full),
    [](const ::testing::TestParamInfo<SchedulerKind> &info) {
        std::string name = schedulerKindName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

TEST(SweepDeterminism, FaultsAndRegistrySnapshotsBitIdentical)
{
    // The strongest cross-check: every scheduler kind, fault
    // injection armed, and a frozen StatRegistry per cell. Serial
    // and 8-job runs must agree byte for byte on the RunStats AND
    // on every (path, value) pair in the registry snapshots.
    const auto plan_result = FaultPlan::parse(
        "hbm-stall:rate=0.03,runaway:rate=0.02:mag=4,"
        "dma-timeout:rate=0.01");
    ASSERT_TRUE(plan_result.ok()) << plan_result.error().toString();
    const FaultPlan plan = plan_result.value();

    const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Pmt, SchedulerKind::Prema,
        SchedulerKind::V10Base, SchedulerKind::V10Fair,
        SchedulerKind::V10Full};

    const auto makeCells =
        [&](std::vector<std::unique_ptr<StatRegistry>> &registries) {
            std::vector<SweepCell> cells;
            for (const SchedulerKind kind : kinds) {
                SweepCell cell;
                cell.kind = kind;
                cell.tenants = {TenantRequest{"BERT", 0, 1.0},
                                TenantRequest{"NCF", 0, 1.0}};
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
    ExperimentRunner serial_runner;
    SweepRunner serial(serial_runner, 1);
    const std::vector<RunStats> expected =
        serial.run(makeCells(serial_registries));

    std::vector<std::unique_ptr<StatRegistry>> parallel_registries;
    ExperimentRunner parallel_runner;
    SweepRunner parallel(parallel_runner, 8);
    const std::vector<RunStats> got =
        parallel.run(makeCells(parallel_registries));

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(std::string("kind ") +
                     schedulerKindName(kinds[i]));
        expectRunStatsEq(expected[i], got[i]);
        const auto serial_snapshot = serial_registries[i]->snapshot();
        EXPECT_FALSE(serial_snapshot.empty());
        expectSnapshotEq(serial_snapshot,
                         parallel_registries[i]->snapshot());
    }
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree)
{
    // Two parallel executions with the same shared runner agree with
    // each other (second run hits warm caches; results must not
    // depend on cache temperature).
    ExperimentRunner runner;
    SweepRunner sweep(runner, 4);
    const auto cells = determinismGrid(SchedulerKind::V10Full);
    const std::vector<RunStats> first = sweep.run(cells);
    const std::vector<RunStats> second = sweep.run(cells);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectRunStatsEq(first[i], second[i]);
    }
}

TEST(SweepDeterminism, PairGridLayoutIsPairMajor)
{
    const auto cells = SweepRunner::pairGrid(
        {{"BERT", "NCF"}, {"ENet", "SMask"}},
        {SchedulerKind::Pmt, SchedulerKind::V10Full}, 5);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].label, "BERT+NCF/PMT");
    EXPECT_EQ(cells[1].label, "BERT+NCF/V10-Full");
    EXPECT_EQ(cells[2].label, "ENet+SMask/PMT");
    EXPECT_EQ(cells[3].label, "ENet+SMask/V10-Full");
    EXPECT_EQ(cells[0].requests, 5u);
}

} // namespace
} // namespace v10
