/**
 * @file
 * V10's tensor operator scheduler (§3.2, Fig. 10): sits at the NPU
 * front end, tracks tenants in the workload context table, and
 * dispatches independent operators from different workloads onto the
 * systolic arrays and vector units *simultaneously*. A periodic
 * preemption timer invokes the scheduling policy to displace
 * over-served operators (§3.3).
 *
 * The three paper variants map to:
 *  - V10-Base: round-robin policy, no preemption
 *  - V10-Fair: priority policy (Algorithm 1), no preemption
 *  - V10-Full: priority policy + operator preemption
 */

#ifndef V10_SCHED_OP_SCHEDULER_H
#define V10_SCHED_OP_SCHEDULER_H

#include <memory>

#include "common/annotations.h"
#include "sched/context_table.h"
#include "sched/engine.h"
#include "sched/policy.h"

namespace v10 {

/**
 * The hardware operator scheduler, at simulation granularity.
 */
class V10_DOMAIN_LOCAL OperatorScheduler : public SchedulerEngine
{
  public:
    /** Paper design points (§5.1). */
    enum class Variant { Base, Fair, Full };

    /** Which scheduling policy to install. */
    enum class PolicyKind { RoundRobin, Priority };

    /**
     * Ablation knobs decoupling the §5.1 design points: any policy
     * can be combined with or without operator preemption.
     */
    struct Options
    {
        PolicyKind policy = PolicyKind::Priority;
        bool preemption = true;
        /** Preemption-timer period; 0 uses the config's timeSlice. */
        Cycles sliceOverride = 0;
        std::uint64_t seed = 1;
    };

    /**
     * @param sim simulation kernel
     * @param core hardware assembly
     * @param tenants collocated workloads
     * @param variant paper design point
     * @param sliceOverride preemption-timer period; 0 uses the
     *        config's timeSlice (Fig. 23 sweeps this)
     * @param seed RNG seed
     */
    OperatorScheduler(Simulator &sim, NpuCore &core,
                      std::vector<TenantSpec> tenants, Variant variant,
                      Cycles sliceOverride = 0, std::uint64_t seed = 1);

    /** Ablation constructor: free policy/preemption combination. */
    OperatorScheduler(Simulator &sim, NpuCore &core,
                      std::vector<TenantSpec> tenants,
                      const Options &options);

    const char *name() const override;

    /** The variant this instance models. */
    Variant variant() const { return variant_; }

    /** Preemption decisions taken by the timer so far. */
    std::uint64_t timerPreemptions() const
    {
        return timer_preemptions_;
    }

  protected:
    void onStart() override;
    void onTenantReady(Tenant &tenant) override;
    void onOpComplete(Tenant &tenant, FunctionalUnit &fu) override;
    void onRegisterStats(StatRegistry &registry) override;

  private:
    /** Mirror engine tenant state into the hardware context table. */
    void syncTable();

    /** Refresh one tenant's context row (hoisted resync: after a
     * dispatch or preemption only the touched tenant's row is
     * stale — the clock does not move inside a scheduling pass). */
    void syncRow(const Tenant &tenant);

    /** Greedily fill every idle FU from the ready set. */
    void fillIdleFus();

    /** Preemption-timer tick (§3.3). */
    void onSliceTimer();

    Variant variant_;
    PolicyKind policy_kind_ = PolicyKind::Priority;
    std::unique_ptr<SchedulingPolicy> policy_;
    bool preemption_enabled_;
    Cycles slice_;
    ContextTable table_;
    std::uint64_t timer_preemptions_ = 0;
};

} // namespace v10

#endif // V10_SCHED_OP_SCHEDULER_H
