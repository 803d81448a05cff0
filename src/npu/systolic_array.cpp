#include "npu/systolic_array.h"

#include "common/log.h"

namespace v10 {

SystolicArray::SystolicArray(Simulator &sim, FuId id,
                             std::uint32_t dim)
    : FunctionalUnit(sim, Kind::SA, id, "sa" + std::to_string(id)),
      dim_(dim)
{
    // NpuConfig::check rejects such a saDim before NpuCore builds
    // the arrays, so reaching this is a caller bug.
    if (dim_ == 0 || dim_ % 8 != 0)
        V10_PANIC("SystolicArray: dim must be a positive multiple of 8 "
                  "(got ", dim_, ")");
}

Cycles
SystolicArray::opCycles(std::uint64_t rows) const
{
    return static_cast<Cycles>(dim_) + rows + 2 * static_cast<Cycles>(dim_);
}

std::uint64_t
SystolicArray::rowsForCycles(Cycles cycles) const
{
    const Cycles overhead = 3 * static_cast<Cycles>(dim_);
    if (cycles <= overhead + 1)
        return 1;
    return cycles - overhead;
}

double
SystolicArray::peakFlopsPerCycle() const
{
    return 2.0 * dim_ * dim_;
}

Cycles
SystolicArray::contextSwitchCycles() const
{
    // 128-cycle input save overlapped with the 384-cycle restore of
    // the incoming operator (weight swap + input replay), §3.3.
    return saPreemptCost(dim_, SaPreemptStrategy::V10Replay)
        .switchCycles();
}

Bytes
SystolicArray::contextBytes() const
{
    return saPreemptCost(dim_, SaPreemptStrategy::V10Replay)
        .contextBytes;
}

Bytes
SystolicArray::naiveContextBytes() const
{
    return saPreemptCost(dim_, SaPreemptStrategy::NaiveDrain)
        .contextBytes;
}

InstructionStream
SystolicArray::opStream(std::uint64_t rows) const
{
    return InstructionStream::forSaOp(SaOpShape{dim_, rows});
}

} // namespace v10
