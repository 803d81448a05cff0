#include "npu/functional_unit.h"

#include <algorithm>

#include "common/log.h"
#include "metrics/stat_registry.h"

namespace v10 {

const char *
fuKindName(FunctionalUnit::Kind kind)
{
    return kind == FunctionalUnit::Kind::SA ? "SA" : "VU";
}

FunctionalUnit::FunctionalUnit(Simulator &sim, Kind kind, FuId id,
                               std::string name)
    : sim_(sim), kind_(kind), id_(id), name_(std::move(name))
{
}

void
FunctionalUnit::begin(WorkloadId workload, OpId op,
                      Cycles computeCycles, Cycles overheadCycles,
                      CompletionCb cb)
{
    if (busy_)
        panic(name_, ": begin while busy (op ", op_id_, " of wl ",
              workload_, " still in flight)");
    if (computeCycles == 0)
        panic(name_, ": zero-cycle operator");
    if (workload == kNoWorkload)
        panic(name_, ": begin without a workload");

    busy_ = true;
    workload_ = workload;
    op_id_ = op;
    start_cycle_ = sim_.now();
    compute_cycles_ = computeCycles;
    overhead_cycles_ = overheadCycles;
    completion_cb_ = std::move(cb);

    completion_event_ =
        sim_.after(overheadCycles + computeCycles, [this] {
            completion_event_ = kNoEvent;
            CompletionCb cb_copy = std::move(completion_cb_);
            retire(true);
            if (cb_copy)
                cb_copy(*this);
        });

    if (observer_)
        observer_->fuBusyChanged(*this, true);
}

Cycles
FunctionalUnit::inflightComputeDone() const
{
    if (!busy_)
        return 0;
    const Cycles elapsed = sim_.now() - start_cycle_;
    if (elapsed <= overhead_cycles_)
        return 0;
    return std::min(elapsed - overhead_cycles_, compute_cycles_);
}

void
FunctionalUnit::retire(bool completed)
{
    const Cycles elapsed = sim_.now() - start_cycle_;
    const Cycles overhead_done = std::min(elapsed, overhead_cycles_);
    const Cycles compute_done =
        completed ? compute_cycles_ : inflightComputeDone();

    compute_accum_ += compute_done;
    overhead_accum_ += overhead_done;
    if (workload_ >= compute_by_workload_.size()) {
        compute_by_workload_.resize(workload_ + std::size_t{1}, 0);
        overhead_by_workload_.resize(workload_ + std::size_t{1}, 0);
    }
    compute_by_workload_[workload_] += compute_done;
    overhead_by_workload_[workload_] += overhead_done;
    if (completed)
        ++ops_completed_;
    else
        ++preempt_count_;

    busy_ = false;
    workload_ = kNoWorkload;
    op_id_ = 0;
    compute_cycles_ = 0;
    overhead_cycles_ = 0;

    if (observer_)
        observer_->fuBusyChanged(*this, false);
}

Cycles
FunctionalUnit::preempt()
{
    if (!busy_)
        panic(name_, ": preempt while idle");
    const Cycles done = inflightComputeDone();
    const Cycles remaining = compute_cycles_ - done;
    sim_.cancel(completion_event_);
    completion_event_ = kNoEvent;
    completion_cb_ = nullptr;
    retire(false);
    // A fully-drained operator still "remains" for its final cycle;
    // callers treat remaining == 0 as a completed op.
    return remaining;
}

Cycles
FunctionalUnit::busyComputeFor(WorkloadId workload) const
{
    return workload < compute_by_workload_.size()
               ? compute_by_workload_[workload]
               : 0;
}

Cycles
FunctionalUnit::overheadFor(WorkloadId workload) const
{
    return workload < overhead_by_workload_.size()
               ? overhead_by_workload_[workload]
               : 0;
}

void
FunctionalUnit::resetStats()
{
    compute_accum_ = 0;
    overhead_accum_ = 0;
    ops_completed_ = 0;
    preempt_count_ = 0;
    compute_by_workload_.clear();
    overhead_by_workload_.clear();
}

void
FunctionalUnit::registerStats(StatRegistry &registry,
                              const std::string &prefix) const
{
    const std::string base = prefix + "." + name_;
    registry.addFormula(
        base + ".busy_cycles",
        [this] { return static_cast<double>(busyComputeCycles()); },
        "accumulated useful compute cycles");
    registry.addFormula(
        base + ".overhead_cycles",
        [this] { return static_cast<double>(overheadCycles()); },
        "accumulated context-switch overhead cycles");
    registry.addFormula(
        base + ".ops_completed",
        [this] { return static_cast<double>(opsCompleted()); },
        "operators retired to completion");
    registry.addFormula(
        base + ".preemptions",
        [this] { return static_cast<double>(preemptCount()); },
        "operators preempted off this unit");
}

} // namespace v10
