/**
 * @file
 * The paper's figures and tables (Figs. 3-9, 13, 15-25 and Tables
 * 1-5) as data. Each figure id has one builder, which runs the
 * experiment and returns the figure as sections of typed cells; one
 * renderer prints a figure as text tables and one as CSV.
 * `v10sim figure --id <id>` is the front end.
 */

#ifndef V10_V10_FIGURES_H
#define V10_V10_FIGURES_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"

namespace v10 {

/**
 * The values the paper reports for the headline comparison (V10-Full
 * against PMT, §5), which the report and Figs. 16-21 print next to
 * the measured ones.
 */
struct PaperValues
{
    double utilization; ///< NPU utilization gain (Fig. 16), geomean
    double throughput;  ///< STP gain (Fig. 18), geomean
    double avgLatency;  ///< average-latency gain (Fig. 19), geomean
    double tailLatency; ///< 95th-percentile latency gain (Fig. 20)
    double overlapMax;  ///< SA&VU overlapped time, best pair (Fig. 17)
    double overlapMean; ///< SA&VU overlapped time, mean (Fig. 17)
    double ctxOverhead; ///< context-switch overhead bound (Fig. 21)
};

inline constexpr PaperValues kPaper{1.64, 1.57, 1.56, 1.74,
                                    0.81, 0.63, 0.02};

/** One table cell: the text the table prints and the raw number
 *  behind it, which the CSV prints. */
struct FigureCell
{
    enum class Kind { Text, Integer, Real };

    std::string text;
    double value = 0.0; ///< the raw number (Integer or Real cells)
    Kind kind = Kind::Text;
};

/** One table column: its text header and its CSV header. */
struct FigureColumn
{
    std::string title;
    std::string csv;
};

/** One table of a figure, with the text lines around it. */
struct FigureSection
{
    std::vector<std::string> lead;  ///< text lines before the table
    std::vector<FigureColumn> columns;
    std::vector<std::vector<FigureCell>> rows;
    std::vector<std::string> notes; ///< text lines after the table
};

/** A figure or table of the paper, as built for one set of options. */
struct Figure
{
    std::string title;    ///< banner title
    std::string paperRef; ///< "Fig. 16", "Table 2", ...
    std::vector<FigureSection> sections;
};

/** What a builder runs. */
struct FigureOptions
{
    std::uint64_t requests = 25; ///< measured requests per run
    /** Fewer requests where a figure has its own quick count (the
     * profiling sweeps, Table 2, Figs. 15 and 25). */
    bool quick = false;
    /** Threads for independent simulations; the figure is identical
     * for any value. */
    std::size_t jobs = 1;
    /** When set, the pair-grid figures (Figs. 16-21) also write their
     * grid here as JSON (see runEvaluationGrid()). */
    std::string statsJsonPath;
};

/**
 * Build figure @p id: "fig3" ... "fig9", "fig13", "fig15" ... "fig25",
 * "table1" ... "table4" (table4 holds Tables 4 and 5).
 * @return the figure, or an error (before anything runs) for an
 *         unknown id, zero requests, a stats JSON path on a figure
 *         without a pair grid, or an unwritable stats JSON path
 */
Result<Figure> buildFigure(const std::string &id,
                           const FigureOptions &options);

/** Print @p figure as text: a banner, then each section's lead
 *  lines, table and notes. */
void printFigureText(std::ostream &os, const Figure &figure);

/**
 * Print @p figure as CSV: one block per section (its CSV headers,
 * then its rows), blocks separated by a blank line. Text cells print
 * their text, Integer cells their value, and Real cells their value
 * with six decimals.
 */
void printFigureCsv(std::ostream &os, const Figure &figure);

} // namespace v10

#endif // V10_V10_FIGURES_H
