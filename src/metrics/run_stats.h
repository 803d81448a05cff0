/**
 * @file
 * The result record of one simulated run: everything the paper's
 * evaluation figures read off a run — per-unit utilization, SA/VU
 * overlap breakdown, HBM bandwidth utilization, per-tenant latency
 * and progress, preemption statistics.
 */

#ifndef V10_METRICS_RUN_STATS_H
#define V10_METRICS_RUN_STATS_H

#include <string>
#include <vector>

#include "common/types.h"

namespace v10 {

class StatRegistry;

/**
 * Per-tenant outcomes of a run.
 */
struct WorkloadRunStats
{
    std::string label;            ///< "BERT@32"
    std::uint64_t requests = 0;   ///< completed inference requests
    double avgLatencyUs = 0.0;    ///< mean request latency
    double p95LatencyUs = 0.0;    ///< tail request latency
    double requestsPerSec = 0.0;  ///< completion rate in the window

    Cycles saComputeCycles = 0;   ///< SA busy cycles attributed here
    Cycles vuComputeCycles = 0;   ///< VU busy cycles attributed here
    Cycles overheadCycles = 0;    ///< context-switch cycles paid
    std::uint64_t preemptions = 0; ///< operator/task preemptions

    /** Per-tenant SA utilization over the window. */
    double saUtil = 0.0;
    /** Per-tenant VU utilization over the window. */
    double vuUtil = 0.0;

    /**
     * Normalized progress vs dedicated-core execution (Eyerman &
     * Eeckhout's per-program speedup; filled by the experiment
     * layer, which knows the single-tenant rate).
     */
    double normalizedProgress = 0.0;

    /** Context-switch overhead as a fraction of single-tenant
     * request time (Fig. 21 left axis). */
    double ctxOverheadFrac = 0.0;

    /** Tenant was quarantined by the degradation policy. */
    bool quarantined = false;

    /** Tenant-attributable faults recorded against this tenant. */
    std::uint32_t faultStrikes = 0;

    /** Preemptions per completed request (Fig. 21 right axis). */
    double preemptsPerRequest() const;
};

/**
 * Whole-run outcomes.
 */
struct RunStats
{
    Cycles windowCycles = 0;      ///< measurement window length
    double windowSeconds = 0.0;

    double saUtil = 0.0;          ///< aggregate SA compute utilization
    double vuUtil = 0.0;          ///< aggregate VU compute utilization
    double combinedUtil = 0.0;    ///< (SA+VU busy) / (2 * window)
    double hbmUtil = 0.0;         ///< bandwidth utilization
    double flopsUtil = 0.0;       ///< achieved FLOPs / peak FLOPs

    /** Fig. 17 buckets (fractions of the window). */
    double overlapBothFrac = 0.0;
    double saOnlyFrac = 0.0;
    double vuOnlyFrac = 0.0;
    double idleFrac = 0.0;

    /** Robustness outcome (docs/ROBUSTNESS.md). aborted means the
     * *run* ended early — watchdog, cycle budget, or every tenant
     * quarantined — never that the process died. */
    bool aborted = false;
    std::string abortReason;
    std::uint64_t faultsInjected = 0;   ///< fault-plan injections
    std::uint64_t dmaRetries = 0;       ///< timed-out DMA reissues
    std::uint64_t saReplays = 0;        ///< corrupt-context replays
    std::uint32_t quarantinedTenants = 0;

    std::vector<WorkloadRunStats> workloads;

    /** System throughput: sum of normalized progress (STP). */
    double stp() const;

    /** Minimum normalized progress across tenants (fairness). */
    double worstProgress() const;

    /**
     * Average normalized turnaround time (Eyerman & Eeckhout): the
     * mean per-tenant slowdown, 1 / normalizedProgress averaged
     * over tenants. Lower is better; 1.0 = dedicated-core latency.
     */
    double antt() const;

    /**
     * Fairness index (Eyerman & Eeckhout): min over max normalized
     * progress across tenants, in [0, 1]; 1.0 = perfectly equal
     * relative progress.
     */
    double fairness() const;

    /** One-line run summary for logs. */
    std::string summary() const;

    /**
     * Multi-line gem5-style statistics dump: every whole-run and
     * per-tenant quantity as `name value` lines, suitable for
     * diffing runs or feeding scripts, then one `registry.<path>`
     * line per entry of the run's frozen @p registry, if given.
     */
    std::string detailedReport(const StatRegistry *registry = nullptr) const;
};

} // namespace v10

#endif // V10_METRICS_RUN_STATS_H
