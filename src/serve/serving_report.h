/**
 * @file
 * The result record of one open-loop serving run: per-tenant tail
 * latency (p50/p99/p999), goodput (SLO-met throughput), shed and
 * violation counts, and per-core occupancy/utilization — the
 * fleet-scale analogue of RunStats. Rendered as a text summary and
 * as the `v10sim serve --stats-json` JSON document; every number is
 * a pure function of (scenario, seed), so the JSON is byte-identical
 * across repeated runs and across --jobs counts (wall-clock never
 * enters the document).
 */

#ifndef V10_SERVE_SERVING_REPORT_H
#define V10_SERVE_SERVING_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"

namespace v10 {

class JsonWriter;
class StatRegistry;

/** Per-tenant serving outcomes. */
struct TenantServingStats
{
    std::string name;         ///< tenant id ("BERT#17")
    std::string model;        ///< workload model abbrev
    std::size_t core = 0;     ///< core the tenant was placed on

    std::uint64_t offered = 0;    ///< arrivals while active
    std::uint64_t completed = 0;  ///< served to completion
    std::uint64_t shed = 0;       ///< dropped at a full queue
    std::uint64_t rejected = 0;   ///< refused by the admission gate
    std::uint64_t inFlightAtEnd = 0; ///< still queued after drain
    std::uint64_t sloViolations = 0; ///< completed but late

    double offeredRps = 0.0;  ///< offered / duration
    double goodputRps = 0.0;  ///< SLO-met completions / duration

    double meanUs = 0.0;   ///< mean sojourn (queue + service)
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double maxUs = 0.0;

    double sloTargetUs = 0.0; ///< 0 = no latency target
    double weight = 1.0;      ///< fair-share weight

    /** Interference attribution: the tenant's total sojourn time
     * decomposed into queueing delay, solo-equivalent service, and
     * service inflation vs the solo-run calibration (negative =
     * collocation speedup). queue + solo + inflation == sojourn. */
    double attribQueueUs = 0.0;     ///< sum of queueing delays
    double attribServiceUs = 0.0;   ///< sum of actual service times
    double attribSoloUs = 0.0;      ///< sum of solo-equivalents
    double attribInflationUs = 0.0; ///< service - solo
    double attribSojournUs = 0.0;   ///< queue + service

    /** Online SLO monitoring: multi-window burn rates (windowed
     * violation rate / error budget) and the alert decision. */
    double burnShort = 0.0;
    double burnLong = 0.0;
    bool sloAlert = false;

    /** Admission-gate state at end of run (zeros when disabled). */
    double admitRpsBase = 0.0;  ///< initial admitted rate
    double admitRpsFinal = 0.0; ///< adapted rate at end of run
    std::uint64_t admitDecreases = 0; ///< AIMD rate cuts
    std::uint64_t admitIncreases = 0; ///< AIMD recoveries

    /** Quarantine state at end of run. */
    std::string quarantineStage = "healthy";
    std::uint32_t strikes = 0;
    double peakAntagonistScore = 0.0;

    /** Churn outcome: activity window and migration count.
     * leaveSec == 0 means the tenant stayed until the end. */
    double joinSec = 0.0;
    double leaveSec = 0.0;
    std::uint64_t migrations = 0;

    /** Fraction of completed requests inside the SLO (1 if none
     * completed or no target). */
    double sloAttainment() const;

    /** Per-tenant conservation: offered == completed + shed +
     * rejected + in-flight-at-end. */
    bool conserved() const
    {
        return offered ==
               completed + shed + rejected + inFlightAtEnd;
    }
};

/** One applied churn transition (report log). */
struct ChurnRecord
{
    double timeSec = 0.0; ///< epoch boundary the event snapped to
    std::string action;   ///< churnActionName()
    std::string tenant;
    std::size_t fromCore = 0;
    std::size_t toCore = 0; ///< == fromCore except for migrate
};

/** One quarantine-ladder transition (report log). */
struct QuarantineRecord
{
    double timeSec = 0.0;
    std::size_t epoch = 0;
    std::string tenant;
    std::string from; ///< quarantineStageName()
    std::string to;
    std::uint32_t strikes = 0;
    double score = 0.0; ///< perpetrator score that decided it
};

/** One admission-gate rate change (report log). */
struct AdmissionRecord
{
    double timeSec = 0.0;
    std::size_t epoch = 0;
    std::string tenant;
    std::string action; ///< "decrease" | "recover"
    double rateRps = 0.0;
};

/** Per-core serving outcomes. */
struct CoreServingStats
{
    std::size_t index = 0;
    std::vector<std::string> tenants; ///< resident tenant names
    std::uint64_t served = 0;         ///< completions on this core
    double busySec = 0.0;             ///< server busy time
    double util = 0.0;                ///< busy / max(duration, drain)
    double speedFactor = 1.0;         ///< collocation service speedup

    /** Live-occupancy gauges (time-weighted over the run). */
    double queueDepthMean = 0.0; ///< mean waiting requests
    double queueDepthPeak = 0.0; ///< peak waiting requests
    double inFlightMean = 0.0;   ///< mean in-service occupancy
};

/** Whole-run serving outcomes. */
struct ServingReport
{
    std::string policy;       ///< placement policy name
    double durationSec = 0.0; ///< arrival horizon
    std::size_t cores = 0;    ///< fleet size
    std::size_t coresUsed = 0; ///< cores with >= 1 tenant

    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;      ///< admission-gate refusals
    std::uint64_t inFlightAtEnd = 0; ///< queued after the drain
    std::uint64_t sloViolations = 0;

    double goodputRps = 0.0;     ///< fleet SLO-met throughput
    double meanCoreUtil = 0.0;   ///< mean util over used cores
    std::uint64_t sloAlerts = 0; ///< tenants with a burn-rate alert

    /** Resilience-loop context: 1 control epoch when every feature
     * is off (the classic single-pass core simulation). */
    std::size_t controlEpochs = 1;
    bool admissionEnabled = false;

    std::vector<TenantServingStats> tenants;
    std::vector<CoreServingStats> coreStats;

    /** Applied resilience events, in deterministic sim-time order. */
    std::vector<ChurnRecord> churnEvents;
    std::vector<QuarantineRecord> quarantineEvents;
    std::vector<AdmissionRecord> admissionEvents;

    /** One-line fleet summary for logs. */
    std::string summary() const;

    /** Offered requests that were admitted past the gate and the
     * queue bound (offered - rejected - shed). */
    std::uint64_t admitted() const
    {
        return offered - shed - rejected;
    }

    /**
     * Conservation self-check: every tenant (and the fleet sums)
     * must satisfy offered == completed + shed + rejected +
     * in_flight_at_end, so new shed/reject paths cannot silently
     * leak requests. Returns the first offending tenant.
     */
    Status checkConservation() const;
};

/** Context of the run for the JSON manifest. */
struct ServeManifest
{
    std::string tool = "v10sim serve";
    std::string policy;
    std::string arrivals;      ///< arrival mix label
    std::size_t cores = 0;
    std::size_t tenants = 0;
    double durationSec = 0.0;
    std::uint64_t seed = 0;
};

/**
 * Emit the report body as one JSON object (fleet aggregates plus
 * "tenants" and "cores" arrays) onto an open writer.
 */
void writeServingReportJson(JsonWriter &w,
                            const ServingReport &report);

/**
 * Write the full serving document: top-level keys "manifest",
 * "serving", and "registry" (null when @p registry is null).
 * Deliberately excludes wall-clock so the document is byte-stable.
 */
void writeServingDocumentJson(std::ostream &os,
                              const ServeManifest &manifest,
                              const ServingReport &report,
                              const StatRegistry *registry);

/** writeServingDocumentJson() to a path; an error Status if the file
 * cannot be opened or a write fails. */
Status writeServingDocumentFile(const std::string &path,
                                const ServeManifest &manifest,
                                const ServingReport &report,
                                const StatRegistry *registry);

/**
 * Register the report's fleet aggregates and per-core gauges under
 * "serve.*" in @p registry (idempotent per fresh registry; panics
 * on path collisions like all StatRegistry misuse).
 */
void registerServingStats(StatRegistry &registry,
                          const ServingReport &report);

} // namespace v10

#endif // V10_SERVE_SERVING_REPORT_H
