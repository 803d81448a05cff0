/**
 * @file
 * The v10lint driver: walks the tree, runs the rule pack's collect
 * and check phases, applies inline suppressions and the baseline,
 * and renders text or JSON reports. tools/v10lint is a thin CLI
 * over runLint(); tests call it directly on fixture corpora.
 */

#ifndef V10_ANALYSIS_ANALYZER_H
#define V10_ANALYSIS_ANALYZER_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/baseline.h"
#include "analysis/finding.h"
#include "analysis/rule.h"
#include "common/result.h"

namespace v10::analysis {

/** What to scan and how to judge it. */
struct LintOptions
{
    /** Repository root; findings and filters use paths relative to
     * it. */
    std::string root = ".";

    /** Root-relative directories/files to scan. */
    std::vector<std::string> paths = {"src", "tools"};

    /** Scan only rules with these names (empty = the full pack). */
    std::vector<std::string> ruleFilter;

    /** Baseline file path; empty = no grandfathering. */
    std::string baselinePath;
};

/** Outcome of a lint run. */
struct LintReport
{
    /** Every unsuppressed finding, scan order, baselined included. */
    std::vector<Finding> findings;

    /** Baseline entries that matched nothing: fixed violations
     * whose entries should now be deleted. */
    std::vector<BaselineEntry> stale;

    std::size_t filesScanned = 0;
    std::size_t suppressedInline = 0;

    std::size_t
    newCount() const
    {
        std::size_t n = 0;
        for (const Finding &f : findings)
            n += f.status == FindingStatus::New;
        return n;
    }

    std::size_t
    baselinedCount() const
    {
        return findings.size() - newCount();
    }
};

/**
 * Run the rule pack over the tree. Fails (ParseError) on an
 * unreadable root/baseline or an unknown rule name in the filter.
 */
Result<LintReport> runLint(const LintOptions &options);

/**
 * Run the rule pack over in-memory sources (fixture corpora and
 * golden tests); same semantics as runLint() minus the filesystem.
 */
LintReport lintSources(const std::vector<SourceFile> &files,
                       const LintOptions &options,
                       const Baseline *baseline);

/** Human-oriented report: one finding per line, then a summary. */
void writeTextReport(const LintReport &report, std::ostream &os);

/** Machine-oriented report (schema in docs/STATIC_ANALYSIS.md). */
void writeJsonReport(const LintReport &report, std::ostream &os);

} // namespace v10::analysis

#endif // V10_ANALYSIS_ANALYZER_H
