#include "sched/pmt_scheduler.h"

#include <cmath>

#include "common/log.h"

namespace v10 {

PmtScheduler::PmtScheduler(Simulator &sim, NpuCore &core,
                           std::vector<TenantSpec> tenants,
                           Options options, std::uint64_t seed)
    : SchedulerEngine(sim, core, std::move(tenants), seed),
      options_(options)
{
    if (options_.taskSlice == 0)
        V10_PANIC("PmtScheduler: zero task slice");
    if (options_.ctxSwitchMinUs < 0.0 ||
        options_.ctxSwitchMaxUs < options_.ctxSwitchMinUs)
        V10_PANIC("PmtScheduler: bad context-switch bounds");
    for (const auto &t : this->tenants())
        priority_sum_ += t.priority;
}

PmtScheduler::PmtScheduler(Simulator &sim, NpuCore &core,
                           std::vector<TenantSpec> tenants)
    : PmtScheduler(sim, core, std::move(tenants), Options{}, 1)
{
}

Cycles
PmtScheduler::sliceFor(std::size_t idx)
{
    // Priority-proportional share of the round's total slice time
    // (Fig. 22: "assigning time slices proportionally to each
    // workload's priority").
    const double share =
        tenants()[idx].priority * tenants().size() / priority_sum_;
    const auto slice = static_cast<Cycles>(
        std::llround(static_cast<double>(options_.taskSlice) * share));
    return std::max<Cycles>(slice, 1);
}

void
PmtScheduler::onStart()
{
    active_ = 0;
    switching_ = false;
    sim().after(sliceFor(active_), [this] { onSliceEnd(); });
    runActive();
}

void
PmtScheduler::runActive()
{
    if (switching_ || allDone())
        return;
    Tenant &t = tenants()[active_];
    if (t.running || !t.ready)
        return;
    // The heavy task-switch cost is paid at switch time; individual
    // operator dispatches are free.
    if (FunctionalUnit *fu = idleFu(currentOp(t).kind))
        dispatch(t, *fu, 0);
}

void
PmtScheduler::onSliceEnd()
{
    if (allDone())
        return;
    if (tenants().size() == 1) {
        // Nothing to switch to; keep the timer alive for symmetry.
        sim().after(sliceFor(active_), [this] { onSliceEnd(); });
        return;
    }

    Tenant &outgoing = tenants()[active_];
    if (outgoing.running) {
        // Task-level preemption interrupts the in-flight operator;
        // it resumes from its checkpoint next slice.
        preemptFu(*outgoing.fu);
    } else {
        countPreemption(outgoing);
    }

    // Checkpoint the whole core state to HBM: 20-40 us during which
    // nothing executes (§5.1).
    const double ctx_us = rng().uniform(options_.ctxSwitchMinUs,
                                        options_.ctxSwitchMaxUs);
    const Cycles ctx_cycles =
        std::max<Cycles>(1, core().config().usToCycles(ctx_us));

    switching_ = true;
    ++task_switches_;
    switch_cycles_total_ += ctx_cycles;
    const std::size_t next = (active_ + 1) % tenants().size();
    chargeCtxOverhead(tenants()[next], ctx_cycles);

    sim().after(ctx_cycles, [this, next] {
        switching_ = false;
        active_ = next;
        sim().after(sliceFor(active_), [this] { onSliceEnd(); });
        runActive();
    });
}

void
PmtScheduler::onTenantReady(Tenant &tenant)
{
    if (tenant.id == tenants()[active_].id)
        runActive();
}

void
PmtScheduler::onOpComplete(Tenant &tenant, FunctionalUnit &)
{
    if (tenant.id == tenants()[active_].id)
        runActive();
}

void
PmtScheduler::onRegisterStats(StatRegistry &registry)
{
    registry.addFormula(
        "sched.task_switches",
        [this] { return static_cast<double>(task_switches_); },
        "whole-core task switches (checkpoint to HBM)");
    registry.addFormula(
        "sched.task_switch_cycles",
        [this] {
            return static_cast<double>(switch_cycles_total_);
        },
        "cycles spent checkpointing the core");
}

} // namespace v10
