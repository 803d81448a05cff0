/**
 * @file
 * Interference attribution for the cycle-accurate path: charges
 * SA/VU preemption-stall cycles, HBM-contention cycles, and
 * context-switch overhead cycles to the specific co-runner that
 * caused them, per (victim, perpetrator) pair. The collector is
 * purely passive — scheduling sites record into it but never read
 * from it, so attaching one leaves runs bit-identical.
 *
 * Totals surface in the registry under the
 * `serve.tenant.<slug>.attrib.*` namespace (with a
 * `.from.<perpetrator>` breakdown, one registry table per victim),
 * mirroring the serve-layer sojourn decomposition so both stacks
 * answer "who stole my cycles" with the same vocabulary.
 *
 * The matrices are sparse, since a fleet tenant waits behind only
 * the few co-residents of its core: each victim keeps the
 * ascending list of perpetrators it has been charged for, and an
 * absent cell reads +0.0. Each perpetrator also keeps the ascending
 * list of victims whose queue-wait cell it has made non-zero, so
 * the antagonist detector's column sums (chargedUs()) cost the
 * charged pairs, not tenants^2.
 */

#ifndef V10_TRACE_ATTRIBUTION_H
#define V10_TRACE_ATTRIBUTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "npu/hbm.h"

namespace v10 {

class StatRegistry;

/** Sanitize a tenant label into a registry path segment
 * ([A-Za-z0-9_] only — "BERT#17" becomes "BERT_17"). */
std::string sanitizeStatSegment(const std::string &label);

/**
 * sanitizeStatSegment() of every label, made unique: the first label
 * keeps its segment, and a later one whose segment is taken gets
 * "_<its index>" appended (again, until it is free).
 */
std::vector<std::string>
uniqueStatSegments(const std::vector<std::string> &labels);

/**
 * Per-(victim, perpetrator) cycle attribution matrices, stored
 * sparse: memory grows with the pairs charged, not tenants^2.
 */
class AttributionCollector : public HbmContentionObserver
{
  public:
    /**
     * Register a tenant; call once per tenant before the run. Ids
     * are small (tenant indices): they index a vector. The first
     * tenant registered under an id keeps it.
     * @return dense index assigned to @p id.
     */
    std::size_t addTenant(WorkloadId id, std::string label);

    std::size_t tenantCount() const { return labels_.size(); }
    const std::string &label(std::size_t idx) const
    {
        return labels_[idx];
    }

    /** Charge preemption-stall cycles to @p perp for @p victim. */
    void chargePreemptStall(WorkloadId victim, WorkloadId perp,
                            double cycles);

    /**
     * Serve-layer charge: @p victim had requests queued for @p us
     * microseconds while @p perp held the server (head-of-line
     * blocking and thrash overhead). Feeds the antagonist
     * detector's perpetrator score (column sums via chargedUs()).
     */
    void chargeQueueWait(WorkloadId victim, WorkloadId perp,
                         double us);

    /** Charge context-switch overhead cycles (self-attributed). */
    void chargeCtxOverhead(WorkloadId victim, double cycles);

    /** HbmContentionObserver: @p owner lost @p cycles to @p other. */
    void onHbmContention(WorkloadId owner, WorkloadId other,
                         double cycles) override;

    double preemptStall(std::size_t victim, std::size_t perp) const;
    double hbmContention(std::size_t victim, std::size_t perp) const;
    double ctxOverhead(std::size_t victim) const;

    double queueWait(std::size_t victim, std::size_t perp) const;

    /** Row sums over all perpetrators, in ascending order. */
    double totalPreemptStall(std::size_t victim) const;
    double totalHbmContention(std::size_t victim) const;
    double totalQueueWait(std::size_t victim) const;

    /**
     * Column sum: total queue-wait us charged TO @p perp across all
     * other victims — the serve-layer antagonist score numerator
     * (self-inflicted waiting is excluded). Adds only the cells
     * @p perp has charged, in ascending victim order: the same
     * double as the dense column sum, whose other terms are +0.0.
     */
    double chargedUs(std::size_t perp) const;

    /** chargedUs() of every tenant: @p out[p] == chargedUs(p). */
    void chargedUsAll(std::vector<double> &out) const;

    /**
     * Register formulas under
     * `serve.tenant.<slug>.attrib.{charged_us, ctx_overhead_cycles,
     * hbm_contention_cycles, preempt_stall_cycles, queue_wait_us}`
     * and, with two or more tenants, one table per victim at
     * `serve.tenant.<slug>.attrib.from` whose leaves are
     * `<perp>.{hbm_contention_cycles, preempt_stall_cycles,
     * queue_wait_us}` for every other tenant. The collector must
     * outlive the registry's freeze().
     */
    void registerStats(StatRegistry &registry) const;

  private:
    /** Dense index for @p id; npos when unknown/kNoWorkload. */
    std::size_t indexOf(WorkloadId id) const;

    /** One charged (victim, perpetrator) pair of a victim's row. */
    struct Cell
    {
        std::uint32_t perp = 0;
        double preempt = 0.0;
        double hbm = 0.0;
        double wait = 0.0; ///< us
    };

    /** Cell (victim, perp), inserted at +0.0 when absent. */
    Cell &cellAt(std::size_t victim, std::size_t perp);

    /** Cell (victim, perp); nullptr when absent (every value +0.0). */
    const Cell *findCell(std::size_t victim, std::size_t perp) const;

    /** A value of cell (victim, perp); +0.0 when absent. */
    double read(std::size_t victim, std::size_t perp,
                double Cell::*value) const;

    /** Row sum of @p value over (victim, *), ascending perp. */
    double rowSum(std::size_t victim, double Cell::*value) const;

    static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

    /// WorkloadId -> dense index; kUnknown for unregistered ids.
    std::vector<std::size_t> denseOf_;
    std::vector<std::string> labels_;
    /// Per victim: the cells it has been charged for, ascending
    /// perp. A cell not in its row reads +0.0.
    std::vector<std::vector<Cell>> rows_;
    std::vector<double> ctx_;       ///< per victim
    /// Per perpetrator: the other victims whose wait cell it has
    /// made non-zero, ascending. Every other cell of its column is
    /// +0.0.
    std::vector<std::vector<std::uint32_t>> waitVictims_;
};

} // namespace v10

#endif // V10_TRACE_ATTRIBUTION_H
