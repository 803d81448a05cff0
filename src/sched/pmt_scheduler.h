/**
 * @file
 * PMT: the state-of-the-art baseline — preemptive multi-tasking at
 * inference-task granularity, modeled after PREMA [HPCA'20] as the
 * paper's §5.1 describes it:
 *
 *  - one tenant owns the whole core at a time; no cross-tenant SA/VU
 *    overlap;
 *  - time slices proportional to tenant priority;
 *  - a task switch checkpoints the entire core state to HBM, costing
 *    20-40 us (drawn uniformly per switch);
 *  - preempted operators resume with their remaining cycles
 *    (checkpoint/recompute semantics).
 */

#ifndef V10_SCHED_PMT_SCHEDULER_H
#define V10_SCHED_PMT_SCHEDULER_H

#include "common/annotations.h"
#include "sched/engine.h"

namespace v10 {

/**
 * Task-level preemptive multitasking baseline.
 */
class V10_DOMAIN_LOCAL PmtScheduler : public SchedulerEngine
{
  public:
    /** Baseline tuning knobs. */
    struct V10_DOMAIN_LOCAL Options
    {
        /** Base task slice in cycles (coarse, to amortize the heavy
         * switch; ~1.5 ms at 700 MHz). */
        Cycles taskSlice = 1u << 20;

        /** Context-switch cost bounds in microseconds (§5.1). */
        double ctxSwitchMinUs = 20.0;
        double ctxSwitchMaxUs = 40.0;
    };

    /** Precondition: taskSlice > 0 and 0 <= ctxSwitchMinUs <=
     * ctxSwitchMaxUs (panics otherwise). */
    PmtScheduler(Simulator &sim, NpuCore &core,
                 std::vector<TenantSpec> tenants, Options options,
                 std::uint64_t seed = 1);

    /** Defaults: Options{} and seed 1. */
    PmtScheduler(Simulator &sim, NpuCore &core,
                 std::vector<TenantSpec> tenants);

    const char *name() const override { return "PMT"; }

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

    /** Slice expiry: checkpoint and switch to the next tenant. */
    void onSliceEnd();

    /** Slice length of tenant @p idx (priority-proportional). */
    Cycles sliceFor(std::size_t idx);

    Options options_;
    std::size_t active_ = 0;
    bool switching_ = false;
    double priority_sum_ = 0.0;
    std::uint64_t task_switches_ = 0;
    Cycles switch_cycles_total_ = 0;
};

} // namespace v10

#endif // V10_SCHED_PMT_SCHEDULER_H
