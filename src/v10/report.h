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

#include "common/result.h"
#include "npu/npu_config.h"

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
