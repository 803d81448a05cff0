/**
 * @file
 * The top-level public API of the V10 framework — what a downstream
 * user instantiates to study multi-tenant serving on an NPU:
 *
 * @code
 *   v10::MultiTenantNpu npu;                       // Table 5 core
 *   npu.addWorkload("BERT");                       // reference batch
 *   npu.addWorkload("NCF", 32, 1.0);
 *   v10::RunStats stats = npu.run();
 *   std::cout << stats.summary() << "\n";
 * @endcode
 */

#ifndef V10_V10_MULTI_TENANT_NPU_H
#define V10_V10_MULTI_TENANT_NPU_H

#include <string>
#include <vector>

#include "v10/experiment.h"

namespace v10 {

/**
 * Facade over the simulator + scheduler + metrics stack.
 */
class MultiTenantNpu
{
  public:
    /**
     * @param config hardware configuration (default: Table 5)
     * @param kind scheduler design (default: the full V10)
     */
    explicit MultiTenantNpu(NpuConfig config = NpuConfig{},
                            SchedulerKind kind =
                                SchedulerKind::V10Full);

    /**
     * Deploy a workload.
     * @param model Table 4 name or abbreviation
     * @param batch inference batch size (0 = reference batch)
     * @param priority relative priority for SLA enforcement
     */
    void addWorkload(const std::string &model, int batch = 0,
                     double priority = 1.0);

    /** Remove all deployed workloads. */
    void clearWorkloads();

    /** Select the scheduler design. */
    void setScheduler(SchedulerKind kind) { kind_ = kind; }

    /** Current scheduler design. */
    SchedulerKind scheduler() const { return kind_; }

    /** Override the preemption-timer period (0 = Table 5 value). */
    void setTimeSlice(Cycles cycles) { options_.sliceOverride = cycles; }

    /** Hardware configuration in use. */
    const NpuConfig &config() const { return runner_.config(); }

    /** Deployed workloads. */
    const std::vector<TenantRequest> &workloads() const
    {
        return tenants_;
    }

    /**
     * Run the closed-loop measurement (§5.1) and return the full
     * statistics record, with normalized progress filled in against
     * dedicated-core references.
     */
    RunStats run(std::uint64_t requests =
                     ExperimentRunner::kDefaultRequests,
                 std::uint64_t warmup =
                     ExperimentRunner::kDefaultWarmup);

    /** Dedicated-core reference statistics for one workload. */
    const RunStats &singleTenantReference(const std::string &model,
                                          int batch = 0);

  private:
    ExperimentRunner runner_;
    SchedulerKind kind_;
    SchedulerOptions options_;
    std::vector<TenantRequest> tenants_;
};

} // namespace v10

#endif // V10_V10_MULTI_TENANT_NPU_H
