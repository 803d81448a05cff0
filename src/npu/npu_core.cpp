#include "npu/npu_core.h"

#include "common/log.h"

namespace v10 {

NpuCore::NpuCore(Simulator &sim, const NpuConfig &config,
                 std::uint32_t tenants, bool reserveSaContexts)
    : sim_(sim), config_(config),
      hbm_(sim, config.hbmBytesPerCycle()),
      vmem_(config.vmemBytes, tenants == 0 ? 1 : tenants,
            reserveSaContexts
                ? config.saContextBytes() * config.numSa
                : 0),
      hbm_regions_(config.hbmBytes)
{
    if (Status s = config_.check(); !s)
        V10_PANIC(s.error().toString());
    for (FuId i = 0; i < config_.numSa; ++i) {
        sas_.push_back(
            std::make_unique<SystolicArray>(sim_, i, config_.saDim));
        sa_units_.push_back(sas_.back().get());
    }
    for (FuId i = 0; i < config_.numVu; ++i) {
        vus_.push_back(std::make_unique<VectorUnit>(
            sim_, i, config_.vuLanes, config_.vuOpsPerLane));
        vu_units_.push_back(vus_.back().get());
    }
}

void
NpuCore::observeAll(FuObserver *observer)
{
    for (auto &sa : sas_)
        sa->setObserver(observer);
    for (auto &vu : vus_)
        vu->setObserver(observer);
}

void
NpuCore::resetStats()
{
    for (auto &sa : sas_)
        sa->resetStats();
    for (auto &vu : vus_)
        vu->resetStats();
}

} // namespace v10
