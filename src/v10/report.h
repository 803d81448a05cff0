/**
 * @file
 * One-command evaluation report: runs the paper's headline
 * experiments (the 11 collocation pairs under all four designs) and
 * renders a self-contained markdown report with the Fig. 16-21
 * quantities and their geomean summaries — the quickest way to
 * regenerate the reproduction evidence after changing the
 * simulator.
 */

#ifndef V10_V10_REPORT_H
#define V10_V10_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "metrics/run_stats.h"
#include "npu/npu_config.h"
#include "sched/scheduler_factory.h"

namespace v10 {

/** Report generation options. */
struct ReportOptions
{
    NpuConfig config{};
    std::uint64_t requests = 25; ///< measured requests per run
    std::string title = "V10 reproduction report";
    /** Threads for the pair × design grid (the report is identical
     * for any value; see SweepRunner). */
    std::size_t jobs = 1;

    /** When non-empty, also dump the full pair × design grid as a
     * structured JSON document at this path ("--stats-json"). */
    std::string statsJsonPath;
};

/**
 * The paper's 11 evaluation pairs (evaluationPairs()) run under a set
 * of designs: the grid behind `v10sim report` and Figs. 16-21.
 */
struct EvaluationGrid
{
    std::vector<SchedulerKind> kinds;
    std::vector<RunStats> cells; ///< pair-major, kind-minor

    /** Number of pairs (rows). */
    std::size_t pairs() const;
    /** "BERT+NCF"-style label of pair @p pair. */
    std::string label(std::size_t pair) const;
    /** The run of pair @p pair under @p kind (one of kinds). */
    const RunStats &at(std::size_t pair, SchedulerKind kind) const;
};

/**
 * Run the grid under @p kinds with options.config, options.requests
 * and options.jobs threads (bit-identical for any jobs count). When
 * options.statsJsonPath is set, also write the grid there as one
 * JSON document: {"manifest": {tool, config, requests, schedulers[]},
 * "grid": {"A+B": {"PMT": RunStats, ...}}}.
 * @param tool the manifest's "tool" value
 * @return the grid, or an error naming options.statsJsonPath when it
 *         cannot be written; an unwritable path fails before the
 *         grid runs
 */
Result<EvaluationGrid>
runEvaluationGrid(const std::vector<SchedulerKind> &kinds,
                  const ReportOptions &options, const std::string &tool);

/**
 * Run the headline evaluation and write a markdown report.
 * @param os output stream
 * @param options run parameters
 * @return an error naming options.statsJsonPath when it cannot be
 *         written; an unwritable path fails before the grid runs
 */
Status writeEvaluationReport(std::ostream &os,
                             const ReportOptions &options);

/** writeEvaluationReport() to a file path; an error naming @p path
 *  when it cannot be opened (before the grid runs) or written. */
Status writeEvaluationReportFile(const std::string &path,
                                 const ReportOptions &options);

} // namespace v10

#endif // V10_V10_REPORT_H
