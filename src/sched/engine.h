/**
 * @file
 * Shared machinery for every scheduler design under evaluation (PMT,
 * V10-Base, V10-Fair, V10-Full, single-tenant): tenant lifecycle,
 * closed-loop request replay, double-buffered operator DMA through
 * the HBM model, preemption bookkeeping, and end-of-run statistics.
 *
 * Subclasses implement the actual dispatch logic via the hook
 * methods.
 */

#ifndef V10_SCHED_ENGINE_H
#define V10_SCHED_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/rng.h"
#include "metrics/interval_sampler.h"
#include "metrics/latency_recorder.h"
#include "metrics/overlap_tracker.h"
#include "metrics/run_stats.h"
#include "metrics/stat_registry.h"
#include "metrics/timeline.h"
#include "npu/npu_core.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace v10 {

class RequestTracer;
class AttributionCollector;
class FlightRecorder;

/**
 * Degradation and fault-tolerance knobs of a run (docs/ROBUSTNESS.md).
 * All default to "off": a default-constructed ResilienceOptions keeps
 * the engine's historical behavior bit-for-bit (no injector draws, no
 * watchdog events, panic on event-queue drain).
 */
struct V10_DOMAIN_LOCAL ResilienceOptions
{
    /** Fault plan to inject (not owned); nullptr = no injection. */
    const FaultPlan *faults = nullptr;

    /** Injector seed; 0 uses the plan's own seed. */
    std::uint64_t faultSeed = 0;

    /** Forward-progress watchdog period; 0 disables the watchdog
     * (unless a cycle budget is set, which arms it at a default
     * period). Must exceed the longest legitimately quiet stretch
     * (dispatch gaps, open-loop inter-arrival times). */
    Cycles watchdogInterval = 0;

    /** Abort the run once it exceeds this many cycles; 0 = off. */
    Cycles cycleBudget = 0;

    /** Tenant-attributable faults (runaway, flood, DMA-retry
     * exhaustion) before a tenant is quarantined; 0 = never. */
    std::uint32_t quarantineThreshold = 0;

    /** Reissues of a timed-out DMA before the tenant is struck and
     * the transfer force-completed (forward progress). */
    std::uint32_t maxDmaRetries = 3;

    /** Initial DMA retry timeout; doubles per retry (backoff).
     * 0 selects a default. */
    Cycles dmaTimeoutCycles = 0;

    /** Directory for the diagnostic bundle written when a run
     * aborts; empty = no bundle. */
    std::string diagnosticDir;

    /** True when any degradation feature is active: aborts become
     * graceful (diagnosable RunStats) instead of panics. */
    bool
    enabled() const
    {
        return faults != nullptr || watchdogInterval > 0 ||
               cycleBudget > 0 || quarantineThreshold > 0;
    }
};

/**
 * K-strike quarantine escalation ladder (docs/RESILIENCE.md),
 * shared by the cycle-accurate engine's fault quarantine and the
 * serve layer's antagonist controller: strikes accumulate while a
 * tenant misbehaves, crossing each threshold escalates the response
 * (throttle -> isolate to a dedicated core -> evict), and sustained
 * clean epochs step the tenant back down one rung (eviction is
 * terminal).
 */
struct QuarantineLadder
{
    /** Strikes before the tenant's admission rate is throttled. */
    std::uint32_t throttleStrikes = 2;

    /** Strikes before the tenant is migrated to a dedicated core. */
    std::uint32_t isolateStrikes = 4;

    /** Strikes before the tenant is evicted (terminal). */
    std::uint32_t evictStrikes = 8;

    /** Admission-rate multiplier applied while throttled/isolated. */
    double throttleFactor = 0.25;

    /** Consecutive clean epochs before stepping down one rung. */
    std::uint32_t recoveryEpochs = 4;

    /** Thresholds must be positive and strictly increasing; the
     * throttle factor must be in (0, 1]. */
    Status check() const;
};

/**
 * One tenant's deployment parameters.
 */
struct TenantSpec
{
    const Workload *workload = nullptr;

    /** Relative priority (Algorithm 1 divisor / PMT slice share). */
    double priority = 1.0;

    /**
     * Open-loop offered load in requests per second (Poisson
     * arrivals). 0 selects the paper's closed-loop replay (§5.1:
     * the next request starts when the previous one completes).
     * Under open loop, request latency includes queueing delay.
     */
    double arrivalRps = 0.0;
};

/**
 * Base scheduler engine: owns per-tenant execution state and the run
 * loop; subclasses decide who runs where and when.
 */
class V10_DOMAIN_LOCAL SchedulerEngine
{
  public:
    /**
     * @param sim simulation kernel
     * @param core hardware assembly
     * @param tenants tenant deployment specs (workloads not owned);
     *        precondition: non-empty, every workload non-null with at
     *        least two operators, priority > 0, arrivalRps >= 0
     *        (panics otherwise)
     * @param seed engine-level RNG seed (PMT context-switch draw)
     */
    SchedulerEngine(Simulator &sim, NpuCore &core,
                    std::vector<TenantSpec> tenants,
                    std::uint64_t seed = 1);

    virtual ~SchedulerEngine();

    SchedulerEngine(const SchedulerEngine &) = delete;
    SchedulerEngine &operator=(const SchedulerEngine &) = delete;

    /** Display name ("PMT", "V10-Full", ...). */
    virtual const char *name() const = 0;

    /**
     * Run until every tenant has completed @p targetRequests
     * measured requests (precondition: > 0). The first
     * @p warmupRequests requests per tenant are excluded from every
     * statistic (steady-state measurement, §5.1).
     */
    RunStats run(std::uint64_t targetRequests,
                 std::uint64_t warmupRequests = 2);

    /** Attach an operator-timeline tracer (not owned; may be
     * nullptr). Slices are recorded for the whole run. */
    void setTimeline(TimelineTracer *timeline)
    {
        timeline_ = timeline;
    }

    /**
     * Attach a statistics registry (not owned; may be nullptr).
     * run() registers the hardware and scheduler statistics into it
     * and freezes it at the end of the run (formulas capture pointers
     * into this engine and its core), so the caller reads the frozen
     * registry after the run. Its top-level sched.* totals are the
     * window totals collectStats() reads.
     */
    void setStats(StatRegistry *stats) { stats_ = stats; }

    /**
     * Attach an interval sampler (not owned; may be nullptr). run()
     * installs the default utilization/queue probes when the caller
     * registered none, and starts/stops it around the run. Probes
     * are read-only, so sampling never perturbs scheduling.
     */
    void setSampler(IntervalSampler *sampler) { sampler_ = sampler; }

    /**
     * Configure fault injection and graceful degradation. Call
     * before run(). The plan (if any) is not owned and must outlive
     * the engine; the per-run FaultInjector is constructed here, so
     * parallel sweeps sharing one plan stay deterministic.
     */
    void setResilience(const ResilienceOptions &options);

    /**
     * Attach a request tracer (not owned; may be nullptr). Request
     * boundaries emit head-sampled spans with IDs derived from
     * (engine seed, tenant, request sequence). Recording is passive
     * — scheduling stays bit-identical with a tracer attached.
     */
    void setRequestTracer(RequestTracer *tracer) { tracer_ = tracer; }

    /**
     * Attach an interference-attribution collector (not owned; may
     * be nullptr). Registers every tenant into it and installs it as
     * the HBM contention observer; dispatch/preemption sites then
     * charge stall, contention, and context-overhead cycles to the
     * responsible co-runner. Purely passive.
     */
    void setAttribution(AttributionCollector *attribution);

    /**
     * Attach a flight recorder (not owned; may be nullptr). Request
     * completions, preemptions, faults, quarantines, and aborts land
     * in its ring; the diagnostics bundle dumps it on abort.
     */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flight_ = recorder;
    }

    /** True when the last run() aborted (watchdog, budget, all
     * tenants quarantined, or wedged event queue). */
    bool aborted() const { return aborted_; }

    /** Human-readable abort reason; empty when not aborted. */
    const std::string &abortReason() const { return abort_reason_; }

    /** This run's fault injector; nullptr when no plan is set. */
    const FaultInjector *injector() const { return injector_.get(); }

  protected:
    /**
     * Per-tenant execution state: the software side of the workload
     * context table row.
     */
    struct Tenant
    {
        const Workload *wl = nullptr;
        WorkloadId id = 0;
        double priority = 1.0;

        /** Absolute index of the current operator (monotonic across
         * request replays). */
        std::uint64_t execCursor = 0;

        /** Trace position of the current operator: execCursor modulo
         * the trace length, kept by wrapping instead of dividing. */
        std::size_t opIndex = 0;

        /** Remaining compute of a preempted operator. */
        Cycles opRemaining = 0;

        /** Current operator was preempted mid-flight. */
        bool opPreempted = false;

        /** Current operator's DMA finished. */
        bool ready = false;

        /** Operator is executing on an FU. */
        bool running = false;

        /** FU occupied while running. */
        FunctionalUnit *fu = nullptr;

        /** Operators [0, dmaStaged) are staged on chip; the DMA
         * engine runs up to kPrefetchDepth operators ahead. */
        std::uint64_t dmaStaged = 0;

        /** Trace position of operator dmaStaged, the next one to
         * prefetch: dmaStaged modulo the trace length. */
        std::size_t dmaPos = 0;

        /** A prefetch DMA is in flight. */
        bool dmaInFlight = false;
        DmaStreamId dma = 0;

        /** The previous operator's dispatch gap ends here; the
         * current operator cannot start earlier. */
        Cycles gapUntil = 0;

        /** A gap-expiry event is scheduled. */
        bool gapEventPending = false;

        /** Open-loop offered load (0 = closed loop). */
        double arrivalRps = 0.0;

        /** The in-flight request spans the warmup boundary; its
         * latency sample would be truncated, so it is skipped. */
        bool skipNextLatency = false;

        /** Arrival cycles of requests not yet completed (FIFO);
         * open-loop latency is measured from these. */
        std::deque<Cycles> arrivalQueue;

        /** Cycle of the most recent dispatch (occupancy metric). */
        Cycles lastDispatch = 0;

        /** Accumulated FU occupancy since arrival (policy metric). */
        Cycles activeCycles = 0;
        Cycles arrivalCycle = 0;

        /** Request accounting. */
        std::uint64_t requestsDone = 0;
        Cycles requestStart = 0;

        /** Requests completed inside the measured window (may
         * exceed the latency sample count by one: the request that
         * straddles the warmup boundary completes but its truncated
         * latency is not sampled). */
        std::uint64_t windowRequests = 0;

        /** Preemption statistics (measured window only). */
        std::uint64_t preemptions = 0;
        Cycles ctxOverheadCycles = 0;

        /** FLOPs of operators completed in the measured window. */
        double doneFlops = 0.0;

        /** Tenant-attributable faults recorded (runaway, flood,
         * DMA-retry exhaustion). */
        std::uint32_t strikes = 0;

        /** Tenant tripped the quarantine threshold: its in-flight
         * work drains, it never becomes ready again, and the
         * completion gates skip it. */
        bool quarantined = false;

        /** Reissues of the current (timed-out) DMA transfer. */
        std::uint32_t dmaRetries = 0;

        /** Pending DMA-timeout event (kNoEvent when disarmed). */
        EventId dmaTimeout = kNoEvent;

        /** Preemption-stall attribution (trace layer; passive).
         * A stall opens when the tenant is evicted and closes at
         * its next dispatch; the perpetrator is whoever took the
         * evicted-from FU in the meantime. */
        bool stallPending = false;
        Cycles stallStart = 0;
        WorkloadId stallPerp = kNoWorkload;
    };

    // ------------------------------------------------------------
    // Hooks for subclasses.
    // ------------------------------------------------------------

    /** Called once at run start, after all tenants begin DMA. */
    virtual void onStart() = 0;

    /** A tenant's current operator became ready (DMA done). */
    virtual void onTenantReady(Tenant &tenant) = 0;

    /** A tenant's operator completed on @p fu; the tenant has
     * already advanced to its next operator. */
    virtual void onOpComplete(Tenant &tenant, FunctionalUnit &fu) = 0;

    /** Subclass hook: register scheduler-specific statistics
     * (context table, timer preemptions, token counters, ...). */
    virtual void onRegisterStats(StatRegistry &registry)
    {
        (void)registry;
    }

    // ------------------------------------------------------------
    // Services for subclasses.
    // ------------------------------------------------------------

    /** All tenants. */
    std::vector<Tenant> &tenants() { return tenants_; }

    /** The current operator of a tenant. */
    const TensorOperator &
    currentOp(const Tenant &tenant) const
    {
        return tenant.wl->trace().ops[tenant.opIndex];
    }

    /**
     * Dispatch a tenant's current operator onto @p fu, charging
     * @p ctxPenalty overhead cycles up front. Handles prefetch of
     * the next operator's DMA and completion plumbing.
     */
    void dispatch(Tenant &tenant, FunctionalUnit &fu,
                  Cycles ctxPenalty);

    /**
     * Preempt the operator running on @p fu (§3.3). The tenant
     * returns to the ready set with its remaining compute; the next
     * dispatch on this FU pays the context-switch penalty.
     * @return the tenant that was preempted.
     */
    Tenant &preemptFu(FunctionalUnit &fu);

    /** Context-switch penalty for dispatching @p tenant on @p fu
     * right now (resume-of-preempted or switch-after-preemption). */
    Cycles ctxPenaltyFor(const Tenant &tenant,
                         const FunctionalUnit &fu) const;

    /** The per-FU-kind context-switch cost (§3.3 cost model). */
    Cycles contextSwitchCycles(FunctionalUnit::Kind kind) const;

    /** Engine RNG (deterministic per seed). */
    Rng &rng() { return rng_; }

    /** True once every tenant finished its measured requests. */
    bool allDone() const { return stopping_; }

    /** Hardware under management. */
    NpuCore &core() { return core_; }

    /** The core's units that execute operators of @p kind. */
    const std::vector<FunctionalUnit *> &
    unitsFor(OpKind kind) const
    {
        return core_.units(kind == OpKind::SA
                               ? FunctionalUnit::Kind::SA
                               : FunctionalUnit::Kind::VU);
    }

    /** First idle unit (lowest index) of @p kind, or nullptr. */
    FunctionalUnit *
    idleFu(OpKind kind) const
    {
        for (auto *fu : unitsFor(kind)) {
            if (!fu->busy())
                return fu;
        }
        return nullptr;
    }

    /** Simulation kernel. */
    Simulator &sim() { return sim_; }

    /** DMA inflation factor for an operator (Fig. 24 spill model). */
    double dmaInflation(const TensorOperator &op) const;

    /** Tenant whose operator occupies @p fu, or nullptr. */
    Tenant *tenantOn(const FunctionalUnit &fu);

    /** True while inside the measured window (after warmup). */
    bool measuring() const { return measuring_; }

    /** Charge @p cycles of context-switch overhead to a tenant
     * (used by schedulers whose switch cost is not FU-attached). */
    void chargeCtxOverhead(Tenant &tenant, Cycles cycles);

    /** Count a task-level preemption that did not interrupt an
     * in-flight operator (PMT switching between operators). */
    void countPreemption(Tenant &tenant);

  private:
    /** Issue the next prefetch DMA if the window has room. */
    void pumpDma(Tenant &tenant);

    /** Start a prefetch transfer after fault arbitration (stall
     * delay and byte inflation already applied). */
    void issueDma(Tenant &tenant, Bytes bytes,
                  const FaultInjector::DmaDecision &decision);

    /** Hand the transfer to the HBM model, or arm the retry timeout
     * when the injector decided it hangs. */
    void startDmaTransfer(Tenant &tenant, Bytes bytes, bool hang);

    /** A hung transfer timed out: strike after maxDmaRetries, else
     * reissue with exponential backoff. */
    void onDmaTimeout(Tenant &tenant, Bytes bytes);

    /** Prefetch DMA completed: mark ready, notify subclass. */
    void onDmaDone(Tenant &tenant);

    /** Record a tenant-attributable fault; quarantine at the
     * configured threshold. */
    void strike(Tenant &tenant, const char *reason);

    /** Isolate a misbehaving tenant: cancel its DMA, drain its
     * in-flight operator, exclude it from the completion gates. */
    void quarantineTenant(Tenant &tenant, const std::string &why);

    /** Evaluate the warmup/stop gates over non-quarantined
     * tenants. */
    void checkProgressGates();

    /** Schedule the first watchdog tick. */
    void armWatchdog();

    /** Periodic liveness check: cycle budget and forward progress. */
    void onWatchdogTick();

    /** Gracefully end the run (not the process) with a reason; the
     * diagnostic bundle is written as run() unwinds. */
    void abortRun(const std::string &reason);

    /** Write diagnostics.json into resilience_.diagnosticDir. */
    void writeDiagnostics() const;

    /** Set the Ready bit and notify once the current operator is
     * staged, the dispatch gap has elapsed, and (open loop) a
     * request has arrived. */
    void maybeBecomeReady(Tenant &tenant);

    /** Schedule the next Poisson arrival of an open-loop tenant. */
    void scheduleArrival(Tenant &tenant);

    /** Operator finished: account request wrap, advance, notify. */
    void onFuComplete(FunctionalUnit &fu, Tenant &tenant);

    /** Advance a tenant past its completed current operator. */
    void advancePastCurrentOp(Tenant &tenant);

    /** Zero every measured statistic (end of warmup). */
    void resetMeasurement();

    /** Whole-run totals of the measured window, summed once. */
    struct WindowTotals
    {
        Cycles saBusyCycles = 0; ///< after the window-debt adjustment
        Cycles vuBusyCycles = 0; ///< after the window-debt adjustment
        Cycles windowCycles = 0;
        std::uint64_t preemptions = 0;
        Cycles ctxOverheadCycles = 0;
        std::uint64_t requests = 0;
        std::uint64_t faultsInjected = 0;
        std::uint64_t dmaRetries = 0;
        std::uint64_t saReplays = 0;
        std::uint64_t quarantinedTenants = 0;
        double flops = 0.0; ///< after the window-debt adjustment
    };

    /** The window totals; collectStats() and the sched.* registry
     * formulas both read them. */
    WindowTotals windowTotals() const;

    /** Collect the RunStats at the end of the measured window. */
    RunStats collectStats();

    /** Register hardware + engine statistics into stats_. */
    void registerStats();

    /** Install the default probe set into sampler_. */
    void registerDefaultProbes();

    Simulator &sim_;
    NpuCore &core_;
    std::vector<Tenant> tenants_;
    Rng rng_;

    OverlapTracker overlap_;
    LatencyRecorder latency_;

    /** Per-FU flag: last op on this unit ended in a preemption. */
    std::vector<bool> fu_last_preempted_;

    /** Per-FU: the tenant evicted by the last preemption on this
     * unit (attribution perpetrator lookup); kNoWorkload once the
     * unit has been re-dispatched. */
    std::vector<WorkloadId> fu_last_victim_;

    /** Compute an in-flight operator had already finished when the
     * measurement window opened; subtracted from the window's
     * busy-cycle accounting (the FU credits the whole operator at
     * completion). */
    struct WindowDebt
    {
        WorkloadId workload = kNoWorkload;
        Cycles cycles = 0;
        double flops = 0.0;
        bool isSa = false;
    };
    std::vector<WindowDebt> window_debts_;

    TimelineTracer *timeline_ = nullptr;
    StatRegistry *stats_ = nullptr;
    IntervalSampler *sampler_ = nullptr;
    RequestTracer *tracer_ = nullptr;
    AttributionCollector *attribution_ = nullptr;
    FlightRecorder *flight_ = nullptr;
    bool stats_registered_ = false;

    /** Engine seed (trace-ID derivation; mirrors rng_'s seed). */
    std::uint64_t seed_ = 1;

    ResilienceOptions resilience_{};
    std::unique_ptr<FaultInjector> injector_;
    bool aborted_ = false;
    std::string abort_reason_;
    Cycles run_start_ = 0;

    /** Retirement counter (DMA completions, operator completions,
     * preemptions) the watchdog differences between ticks. */
    std::uint64_t progress_marks_ = 0;
    std::uint64_t watchdog_last_marks_ = 0;

    std::uint64_t dma_retries_total_ = 0;
    std::uint64_t sa_replays_ = 0;

    /** Monotonic preemption count (never reset at the measurement
     * boundary — Delta probes need a monotonic reading). */
    std::uint64_t lifetime_preemptions_ = 0;

    std::uint64_t warmup_requests_ = 0;
    std::uint64_t stop_requests_ = 0;
    bool measuring_ = false;
    bool stopping_ = false;
    Cycles window_start_ = 0;

    /** FU pointer -> dense index for fu_last_preempted_. */
    std::size_t fuIndex(const FunctionalUnit &fu) const;
    std::vector<FunctionalUnit *> fu_index_;
};

} // namespace v10

#endif // V10_SCHED_ENGINE_H
