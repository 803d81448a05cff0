/**
 * @file
 * Parallel experiment sweeps: fans independent (scheduler,
 * tenant-mix, run-length) cells of an experiment grid across a
 * ParallelExecutor and collects RunStats in cell order.
 *
 * Every cell builds its own Simulator + NPU core + scheduler inside
 * ExperimentRunner::run(), and the runner's caches compute each
 * shared workload / single-tenant reference exactly once, so a sweep
 * with jobs=N is bit-identical to the same sweep with jobs=1 (proved
 * by tests/test_parallel_executor.cpp across all scheduler kinds).
 */

#ifndef V10_V10_SWEEP_H
#define V10_V10_SWEEP_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_executor.h"
#include "common/result.h"
#include "v10/experiment.h"

namespace v10 {

/** One cell of an experiment sweep grid. */
struct SweepCell
{
    SchedulerKind kind = SchedulerKind::V10Full;
    std::vector<TenantRequest> tenants;
    std::uint64_t requests = ExperimentRunner::kDefaultRequests;
    std::uint64_t warmup = ExperimentRunner::kDefaultWarmup;
    SchedulerOptions options{};
    std::string label; ///< optional display label ("BERT+NCF/PMT")
};

/**
 * Structured validation of one sweep cell: known models, positive
 * batch/priority, finite non-negative arrival rates, a positive
 * request target. @p index labels the cell in the diagnostic.
 */
Status validateSweepCell(const SweepCell &cell, std::size_t index);

/** validateSweepCell() over a whole grid; first failure wins. */
Status validateSweepCells(const std::vector<SweepCell> &cells);

/**
 * Runs sweep cells over a shared ExperimentRunner with a fixed
 * number of jobs. Results are returned in submission order
 * regardless of completion order.
 */
class SweepRunner
{
  public:
    /**
     * @param runner shared experiment runner (its caches are
     *        thread-safe; the reference must outlive the sweep)
     * @param jobs concurrency; 1 = serial, 0 = hardware threads
     */
    explicit SweepRunner(ExperimentRunner &runner,
                         std::size_t jobs = 1);

    /** Configured concurrency. */
    std::size_t jobs() const { return exec_.jobs(); }

    /** The underlying runner. */
    ExperimentRunner &runner() { return runner_; }

    /** Run every cell; result i corresponds to cells[i]. */
    std::vector<RunStats> run(const std::vector<SweepCell> &cells);

    /**
     * Convenience pair grid: run every (pair, kind) combination,
     * returned row-major (pair-major, kind-minor) — the layout the
     * evaluation grid (runEvaluationGrid) consumes.
     */
    std::vector<RunStats>
    runPairs(const std::vector<std::pair<std::string, std::string>>
                 &pairs,
             const std::vector<SchedulerKind> &kinds,
             std::uint64_t requests);

    /** Build the cells runPairs() executes (exposed for tests). */
    static std::vector<SweepCell> pairGrid(
        const std::vector<std::pair<std::string, std::string>>
            &pairs,
        const std::vector<SchedulerKind> &kinds,
        std::uint64_t requests);

  private:
    ExperimentRunner &runner_;
    ParallelExecutor exec_;
};

} // namespace v10

#endif // V10_V10_SWEEP_H
