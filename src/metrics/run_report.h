/**
 * @file
 * Structured JSON run report: one self-describing document per run
 * combining (a) a manifest of how the run was configured, (b) the
 * whole-run and per-tenant RunStats, (c) the full StatRegistry dump,
 * and (d) the interval-sampler time-series when sampling was on.
 * Written by `v10sim run/report/advise --stats-json` and the bench
 * drivers; consumed by scripts and the CI schema check.
 */

#ifndef V10_METRICS_RUN_REPORT_H
#define V10_METRICS_RUN_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace v10 {

class IntervalSampler;
class JsonWriter;
class StatRegistry;
struct RunStats;

/**
 * What produced the numbers: enough to rerun the experiment.
 */
struct RunManifest
{
    std::string tool;          ///< "v10sim run", "v10sim figure --id fig18", ...
    std::string scheduler;     ///< "v10-full", "pmt", ...
    std::string configSummary; ///< one-line NpuConfig description
    std::vector<std::string> workloads; ///< tenant labels
    std::uint64_t requests = 0;   ///< requested per-tenant requests
    std::uint64_t seed = 0;
    Cycles simulatedCycles = 0;
    double wallSeconds = 0.0;     ///< host wall-clock for the run
    Cycles sampleInterval = 0;    ///< 0 = sampling off
};

/**
 * Emit one RunStats as a JSON object (whole-run metrics plus a
 * "tenants" array) onto an open writer — the building block shared
 * by the run report and the report-grid JSON.
 */
void writeRunStatsJson(JsonWriter &w, const RunStats &stats);

/**
 * Write the full report as one JSON object with top-level keys
 * "manifest", "run", "registry", and "samples" (null when
 * @p sampler is null or empty).
 */
void writeRunReportJson(std::ostream &os, const RunManifest &manifest,
                        const RunStats &stats,
                        const StatRegistry *registry,
                        const IntervalSampler *sampler);

/** writeRunReportJson() to a path; an error Status if unwritable. */
Status writeRunReportJsonFile(const std::string &path,
                              const RunManifest &manifest,
                              const RunStats &stats,
                              const StatRegistry *registry,
                              const IntervalSampler *sampler);

} // namespace v10

#endif // V10_METRICS_RUN_REPORT_H
