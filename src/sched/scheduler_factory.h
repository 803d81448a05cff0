/**
 * @file
 * Scheduler design points of the evaluation (§5.1) and a factory to
 * instantiate them uniformly from experiment code.
 */

#ifndef V10_SCHED_SCHEDULER_FACTORY_H
#define V10_SCHED_SCHEDULER_FACTORY_H

#include <memory>
#include <optional>
#include <string>

#include "sched/op_scheduler.h"
#include "sched/pmt_scheduler.h"
#include "sched/prema_scheduler.h"

namespace v10 {

/** The compared designs (§5.1), plus the PREMA extension. */
enum class SchedulerKind {
    Pmt,     ///< task-level preemptive multitasking baseline
    V10Base, ///< simultaneous execution + round-robin
    V10Fair, ///< + priority policy (Algorithm 1)
    V10Full, ///< + operator preemption (§3.3)
    Prema,   ///< token-based PREMA [HPCA'20] (extension baseline)
};

/** The paper's §5.1 designs, in plotting order (excludes the PREMA
 * extension so the figures match the paper). */
const std::vector<SchedulerKind> &allSchedulerKinds();

/** Display name ("PMT", "V10-Base", ...). */
const char *schedulerKindName(SchedulerKind kind);

/** Parse a display name back to a kind; nullopt if unknown. */
std::optional<SchedulerKind>
schedulerKindFromName(const std::string &name);

/** Per-run scheduler options. */
struct SchedulerOptions
{
    /** V10 preemption-timer period; 0 = config default (Fig. 23). */
    Cycles sliceOverride = 0;

    /** Engine RNG seed. */
    std::uint64_t seed = 1;

    /** Optional operator-timeline tracer (not owned). */
    TimelineTracer *timeline = nullptr;

    /** Optional statistics registry (not owned); the engine
     * registers into it and freezes it at end of run. */
    StatRegistry *stats = nullptr;

    /** Optional interval sampler (not owned); started at run start
     * with the default probe set unless probes were pre-registered. */
    IntervalSampler *sampler = nullptr;

    /** Fault injection and graceful degradation (all off by
     * default); the referenced FaultPlan, if any, is not owned. */
    ResilienceOptions resilience{};

    /** Optional request tracer (not owned); request boundaries emit
     * head-sampled spans. Passive — scheduling is bit-identical. */
    RequestTracer *requestTracer = nullptr;

    /** Optional interference-attribution collector (not owned);
     * charges preemption-stall / HBM-contention / ctx-overhead
     * cycles to the responsible co-runner. Passive. */
    AttributionCollector *attribution = nullptr;

    /** Optional flight recorder (not owned); keeps the last K
     * scheduler events for the abort diagnostics bundle. */
    FlightRecorder *flightRecorder = nullptr;
};

/**
 * Instantiate a scheduler engine of @p kind over @p core.
 */
std::unique_ptr<SchedulerEngine>
makeScheduler(SchedulerKind kind, Simulator &sim, NpuCore &core,
              std::vector<TenantSpec> tenants,
              const SchedulerOptions &options = SchedulerOptions{});

/** True when @p kind needs vmem reserved for SA preemption
 * contexts (V10-Full). */
bool reservesSaContexts(SchedulerKind kind);

} // namespace v10

#endif // V10_SCHED_SCHEDULER_FACTORY_H
