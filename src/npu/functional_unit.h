/**
 * @file
 * Base class for the NPU's compute units (systolic arrays and vector
 * units). A functional unit executes one operator at a time, at phase
 * granularity: begin() schedules the completion event; preempt()
 * cancels it and reports the remaining compute so the operator can be
 * resumed later (recompute-from-checkpoint semantics, §3.3).
 *
 * Busy time is split into *compute* cycles (useful work, what the
 * utilization figures count) and *overhead* cycles (context-switch
 * penalties, what Fig. 21 counts).
 */

#ifndef V10_NPU_FUNCTIONAL_UNIT_H
#define V10_NPU_FUNCTIONAL_UNIT_H

#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/small_fn.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace v10 {

class FunctionalUnit;
class StatRegistry;

/** Callback interface for busy/idle transitions (overlap metrics). */
class FuObserver
{
  public:
    virtual ~FuObserver() = default;

    /** Fired when @p fu transitions between busy and idle. */
    virtual void fuBusyChanged(const FunctionalUnit &fu, bool busy) = 0;
};

/**
 * One compute unit executing operators at phase granularity.
 */
class V10_DOMAIN_LOCAL FunctionalUnit
{
  public:
    /** Which kind of compute unit this is. */
    enum class Kind { SA, VU };

    /** Invoked when the operator begun with begin() completes.
     * Move-only and allocation-free for small captures (SmallFn);
     * the event hot path must not construct std::function. */
    using CompletionCb = SmallFn<void(FunctionalUnit &)>;

    /**
     * @param sim simulation kernel (not owned)
     * @param kind SA or VU
     * @param id unit index within its kind
     * @param name display name ("sa0", "vu1", ...)
     */
    FunctionalUnit(Simulator &sim, Kind kind, FuId id,
                   std::string name);

    virtual ~FunctionalUnit() = default;

    FunctionalUnit(const FunctionalUnit &) = delete;
    FunctionalUnit &operator=(const FunctionalUnit &) = delete;

    /** SA or VU. */
    Kind kind() const { return kind_; }

    /** Unit index within its kind. */
    FuId id() const { return id_; }

    /** Display name. */
    const std::string &name() const { return name_; }

    /** True while an operator occupies this unit. */
    bool busy() const { return busy_; }

    /** Tenant of the in-flight operator; kNoWorkload when idle. */
    WorkloadId workload() const { return workload_; }

    /** Operator id of the in-flight operator. */
    OpId opId() const { return op_id_; }

    /**
     * Start executing an operator.
     * @param workload owning tenant (a dense id, not kNoWorkload)
     * @param op operator id (for tracing)
     * @param computeCycles remaining useful compute
     * @param overheadCycles context-switch penalty paid up front
     * @param cb fired at completion (not on preemption)
     */
    void begin(WorkloadId workload, OpId op, Cycles computeCycles,
               Cycles overheadCycles, CompletionCb cb);

    /**
     * Preempt the in-flight operator.
     * @return compute cycles still outstanding; the operator must be
     *         resumed later with that remainder (plus a fresh
     *         context-switch penalty).
     */
    Cycles preempt();

    /** Compute cycles the in-flight operator has finished by now. */
    Cycles inflightComputeDone() const;

    /** Total compute cycles of the in-flight operator. */
    Cycles inflightComputeTotal() const { return compute_cycles_; }

    /** Cycle the in-flight operator started at (incl. overhead). */
    Cycles inflightStart() const { return start_cycle_; }

    /** Accumulated useful compute cycles (completed + preempted). */
    Cycles busyComputeCycles() const { return compute_accum_; }

    /**
     * busyComputeCycles() plus the finished portion of any in-flight
     * operator — a read-only probe for interval sampling (retired
     * accumulators alone would step once per operator).
     */
    Cycles liveBusyComputeCycles() const
    {
        return compute_accum_ + inflightComputeDone();
    }

    /** Operators retired to completion (preemptions excluded). */
    std::uint64_t opsCompleted() const { return ops_completed_; }

    /** Times the in-flight operator was preempted off this unit. */
    std::uint64_t preemptCount() const { return preempt_count_; }

    /** Accumulated context-switch overhead cycles. */
    Cycles overheadCycles() const { return overhead_accum_; }

    /** Accumulated useful compute for one tenant. */
    Cycles busyComputeFor(WorkloadId workload) const;

    /** Accumulated overhead for one tenant. */
    Cycles overheadFor(WorkloadId workload) const;

    /** Register the busy/idle observer (may be nullptr). */
    void setObserver(FuObserver *observer) { observer_ = observer; }

    /** Reset all accumulated statistics (not the in-flight op). */
    void resetStats();

    /**
     * Register this unit's statistics under "<prefix>.<name>.*"
     * (busy_cycles and overhead_cycles as live formulas,
     * ops_completed / preemptions as formulas over the counters).
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    Simulator &sim_;

  private:
    /** Account the in-flight op up to now and clear the busy state. */
    void retire(bool completed);

    Kind kind_;
    FuId id_;
    std::string name_;

    bool busy_ = false;
    WorkloadId workload_ = kNoWorkload;
    OpId op_id_ = 0;
    Cycles start_cycle_ = 0;
    Cycles compute_cycles_ = 0;
    Cycles overhead_cycles_ = 0;
    EventId completion_event_ = kNoEvent;
    CompletionCb completion_cb_;

    Cycles compute_accum_ = 0;
    Cycles overhead_accum_ = 0;
    std::uint64_t ops_completed_ = 0;
    std::uint64_t preempt_count_ = 0;
    // Per-workload totals indexed by the (dense) workload id, grown
    // on first retire; absent ids read as zero.
    std::vector<Cycles> compute_by_workload_;
    std::vector<Cycles> overhead_by_workload_;

    FuObserver *observer_ = nullptr;
};

/** Printable name of a unit kind ("SA"/"VU"). */
const char *fuKindName(FunctionalUnit::Kind kind);

} // namespace v10

#endif // V10_NPU_FUNCTIONAL_UNIT_H
