/**
 * @file
 * One NPU core: N systolic arrays + N vector units + vector memory +
 * HBM DMA, assembled per an NpuConfig (Figure 2 of the paper). The
 * core owns the hardware; schedulers (src/sched) drive it.
 */

#ifndef V10_NPU_NPU_CORE_H
#define V10_NPU_NPU_CORE_H

#include <memory>
#include <vector>

#include "common/annotations.h"
#include "npu/hbm.h"
#include "npu/hbm_regions.h"
#include "npu/npu_config.h"
#include "npu/systolic_array.h"
#include "npu/vector_memory.h"
#include "npu/vector_unit.h"
#include "sim/simulator.h"

namespace v10 {

/**
 * Hardware assembly of one simulated NPU core.
 */
class V10_DOMAIN_LOCAL NpuCore
{
  public:
    /**
     * @param sim simulation kernel (not owned)
     * @param config hardware parameters; precondition: check()
     *        passes (panics otherwise)
     * @param tenants number of collocated workloads (vmem split)
     * @param reserveSaContexts reserve per-tenant vmem for SA
     *        preemption contexts (true for V10-Full)
     */
    NpuCore(Simulator &sim, const NpuConfig &config,
            std::uint32_t tenants, bool reserveSaContexts);

    NpuCore(const NpuCore &) = delete;
    NpuCore &operator=(const NpuCore &) = delete;

    /** Hardware parameters. */
    const NpuConfig &config() const { return config_; }

    /** Simulation kernel. */
    Simulator &sim() { return sim_; }

    /** Systolic arrays. */
    std::vector<std::unique_ptr<SystolicArray>> &sas() { return sas_; }

    /** Vector units. */
    std::vector<std::unique_ptr<VectorUnit>> &vus() { return vus_; }

    /** A systolic array by index. */
    SystolicArray &sa(FuId id) { return *sas_.at(id); }

    /** A vector unit by index. */
    VectorUnit &vu(FuId id) { return *vus_.at(id); }

    /** The HBM bandwidth model. */
    HbmModel &hbm() { return hbm_; }

    /** The vector-memory partitioning model. */
    VectorMemory &vmem() { return vmem_; }

    /** The §3.6 HBM region allocator (one region per tenant). */
    HbmRegionAllocator &hbmRegions() { return hbm_regions_; }

    /** All functional units of one kind, as base pointers, in
     * index order (built once; schedulers scan it per dispatch). */
    const std::vector<FunctionalUnit *> &
    units(FunctionalUnit::Kind kind) const
    {
        return kind == FunctionalUnit::Kind::SA ? sa_units_ : vu_units_;
    }

    /** Install one observer on every functional unit. */
    void observeAll(FuObserver *observer);

    /** Reset per-FU statistics. */
    void resetStats();

  private:
    Simulator &sim_;
    NpuConfig config_;
    std::vector<std::unique_ptr<SystolicArray>> sas_;
    std::vector<std::unique_ptr<VectorUnit>> vus_;
    std::vector<FunctionalUnit *> sa_units_;
    std::vector<FunctionalUnit *> vu_units_;
    HbmModel hbm_;
    VectorMemory vmem_;
    HbmRegionAllocator hbm_regions_;
};

} // namespace v10

#endif // V10_NPU_NPU_CORE_H
