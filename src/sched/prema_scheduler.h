/**
 * @file
 * PREMA-style token-based preemptive scheduler (Choi & Rhu,
 * HPCA'20) — the mechanism behind the paper's PMT baseline,
 * implemented in its original form as an extra comparison point:
 *
 *  - while waiting, each task accrues tokens at a rate proportional
 *    to its priority;
 *  - at every checkpoint (periodic, at task-level granularity) the
 *    scheduler collects the tasks whose tokens passed the threshold
 *    and, predictively, runs the one with the shortest estimated
 *    remaining execution time (the "predictive multi-task"
 *    part); with no candidate above the threshold the current task
 *    continues (or the highest-token task starts on an idle core);
 *  - a task switch checkpoints the whole core to HBM at the same
 *    20-40 us cost as PMT.
 *
 * Like PMT it owns the entire core per task: no cross-tenant SA/VU
 * overlap — which is exactly why V10 outperforms both.
 */

#ifndef V10_SCHED_PREMA_SCHEDULER_H
#define V10_SCHED_PREMA_SCHEDULER_H

#include "common/annotations.h"
#include "sched/engine.h"

namespace v10 {

/**
 * Token-based predictive multi-task scheduling baseline.
 */
class V10_DOMAIN_LOCAL PremaScheduler : public SchedulerEngine
{
  public:
    /** PREMA tuning knobs. */
    struct V10_DOMAIN_LOCAL Options
    {
        /** Checkpoint period: how often the token scheduler runs
         * (task-level granularity; ~0.4 ms at 700 MHz). */
        Cycles checkpointPeriod = 1u << 18;

        /** Token threshold for becoming a preemption candidate, in
         * priority-weighted waiting cycles (~3 ms at priority 1). */
        double tokenThreshold = 2097152.0;

        /** Context-switch cost bounds in microseconds. */
        double ctxSwitchMinUs = 20.0;
        double ctxSwitchMaxUs = 40.0;
    };

    /** Precondition: checkpointPeriod > 0, tokenThreshold > 0 and
     * 0 <= ctxSwitchMinUs <= ctxSwitchMaxUs (panics otherwise). */
    PremaScheduler(Simulator &sim, NpuCore &core,
                   std::vector<TenantSpec> tenants, Options options,
                   std::uint64_t seed = 1);

    /** Defaults: Options{} and seed 1. */
    PremaScheduler(Simulator &sim, NpuCore &core,
                   std::vector<TenantSpec> tenants);

    const char *name() const override { return "PREMA"; }

    /** Whole-core task switches performed so far. */
    std::uint64_t taskSwitches() const { return task_switches_; }

  protected:
    void onStart() override;
    void onTenantReady(Tenant &tenant) override;
    void onOpComplete(Tenant &tenant, FunctionalUnit &fu) override;
    void onRegisterStats(StatRegistry &registry) override;

  private:
    /** Dispatch the active tenant's current operator if possible. */
    void runActive();

    /** Periodic checkpoint: update tokens, maybe switch tasks. */
    void onCheckpoint();

    /** Accrue waiting tenants' tokens since the last update. */
    void accrueTokens();

    /** Estimated remaining cycles of a tenant's current request. */
    Cycles estimatedRemaining(const Tenant &tenant) const;

    /** Switch the core to @p next (checkpoint cost applies). */
    void switchTo(std::size_t next);

    Options options_;
    std::size_t active_ = 0;
    bool switching_ = false;
    std::vector<double> tokens_;
    Cycles last_accrual_ = 0;
    std::uint64_t task_switches_ = 0;
};

} // namespace v10

#endif // V10_SCHED_PREMA_SCHEDULER_H
