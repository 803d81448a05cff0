#include "npu/vector_unit.h"

#include <cmath>

#include "common/log.h"

namespace v10 {

VectorUnit::VectorUnit(Simulator &sim, FuId id, std::uint32_t lanes,
                       std::uint32_t opsPerLane)
    : FunctionalUnit(sim, Kind::VU, id, "vu" + std::to_string(id)),
      lanes_(lanes), ops_per_lane_(opsPerLane)
{
    // NpuConfig::check rejects zero vuLanes/vuOpsPerLane before
    // NpuCore builds the units, so reaching this is a caller bug.
    if (lanes_ == 0 || ops_per_lane_ == 0)
        V10_PANIC("VectorUnit: lanes and opsPerLane must be positive "
                  "(got ", lanes_, " and ", ops_per_lane_, ")");
}

double
VectorUnit::peakFlopsPerCycle() const
{
    return static_cast<double>(lanes_) * ops_per_lane_;
}

Cycles
VectorUnit::opCyclesForFlops(double flops) const
{
    if (flops <= 0.0)
        return 1;
    return static_cast<Cycles>(
        std::max(1.0, std::ceil(flops / peakFlopsPerCycle())));
}

double
VectorUnit::flopsForCycles(Cycles cycles) const
{
    return static_cast<double>(cycles) * peakFlopsPerCycle();
}

Bytes
VectorUnit::contextBytes() const
{
    // 32 vector registers of 8x128 4-byte floats, plus the PC.
    return 32ull * 8 * 128 * 4 + 8;
}

InstructionStream
VectorUnit::opStream(std::uint64_t elements) const
{
    return InstructionStream::forVuOp(VuOpShape{elements, lanes_, 1});
}

} // namespace v10
