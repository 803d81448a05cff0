/**
 * @file
 * The workload context table of V10's tensor operator scheduler
 * (Fig. 11). One row per collocated workload tracks the most recent
 * operator of that workload — operators within one workload execute
 * sequentially, so a single row per tenant suffices (§3.2).
 *
 * The table is both the scheduler's working state and the hardware
 * cost model's sizing input (Table 3: ~22 bytes per row with 4 FUs).
 */

#ifndef V10_SCHED_CONTEXT_TABLE_H
#define V10_SCHED_CONTEXT_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "workload/operator.h"

namespace v10 {

class StatRegistry;

/**
 * One row of the workload context table.
 */
struct ContextRow
{
    /** Operator id of the workload's current operator. */
    OpId opId = 0;

    /** FU kind the current operator needs. */
    OpKind opType = OpKind::SA;

    /** Operator is executing on a functional unit. */
    bool active = false;

    /** Operator's DMA finished; it can be dispatched. */
    bool ready = false;

    /** FU the operator occupies when active. */
    FuId fuId = kNoFu;

    /** Cycles this workload has occupied FUs since arrival. */
    Cycles activeCycles = 0;

    /** Cycles since the workload arrived at the NPU. */
    Cycles totalCycles = 0;

    /** Relative priority (Algorithm 1's divisor; 7-bit in HW). */
    double priority = 1.0;

    /**
     * active_rate = active_time / total_time: the fraction of its
     * ideal dedicated-core throughput this workload is receiving.
     */
    double
    activeRate() const
    {
        if (totalCycles == 0)
            return 0.0;
        return static_cast<double>(activeCycles) /
               static_cast<double>(totalCycles);
    }

    /** active_rate / priority, Algorithm 1's ranking key. */
    double
    activeRateP() const
    {
        if (priority <= 0.0)
            priorityPanic();
        return activeRate() / priority;
    }

  private:
    [[noreturn]] static void priorityPanic();
};

/**
 * The full table: one row per tenant.
 */
class V10_DOMAIN_LOCAL ContextTable
{
  public:
    /** @param tenants number of collocated workloads */
    explicit ContextTable(std::uint32_t tenants);

    /** Row of one tenant (mutable). */
    ContextRow &
    row(WorkloadId tenant)
    {
        if (tenant >= rows_.size())
            rangePanic(tenant);
        return rows_[tenant];
    }

    /** Row of one tenant. */
    const ContextRow &
    row(WorkloadId tenant) const
    {
        if (tenant >= rows_.size())
            rangePanic(tenant);
        return rows_[tenant];
    }

    /** Number of rows. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(rows_.size());
    }

    /** Advance every row's total_time by @p delta. */
    void tick(Cycles delta);

    /**
     * Hardware row size in bits, as a function of FU count (Fig. 11:
     * 32b op id + active + ready + fu-id bits + 2x64b counters + 7b
     * priority + 1b op type).
     */
    static std::uint32_t rowBits(std::uint32_t numFus);

    /** Table storage in bytes for @p tenants rows and @p numFus. */
    static Bytes storageBytes(std::uint32_t tenants,
                              std::uint32_t numFus);

    /**
     * Register table statistics under "<prefix>.*": the hardware
     * storage cost plus per-row active-rate/active-cycle formulas
     * ("<prefix>.rowN.active_rate", ...).
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix,
                       std::uint32_t numFus) const;

  private:
    [[noreturn]] static void rangePanic(WorkloadId tenant);

    std::vector<ContextRow> rows_;
};

} // namespace v10

#endif // V10_SCHED_CONTEXT_TABLE_H
