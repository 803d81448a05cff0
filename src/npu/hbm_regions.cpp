#include "npu/hbm_regions.h"

#include "common/log.h"
#include "common/string_util.h"

namespace v10 {

HbmRegionAllocator::HbmRegionAllocator(Bytes capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("HbmRegionAllocator: zero capacity");
}

bool
HbmRegionAllocator::fits(Bytes size) const
{
    return size <= freeBytes();
}

std::size_t
HbmRegionAllocator::allocate(const std::string &owner, Bytes size)
{
    if (size == 0)
        fatal("HbmRegionAllocator: zero-sized region for ", owner);
    if (!fits(size))
        fatal("HbmRegionAllocator: ", owner, " needs ",
              formatBytes(size), ", which does not fit: only ",
              formatBytes(freeBytes()), " of ",
              formatBytes(capacity_), " HBM remain");
    HbmRegion region;
    region.owner = owner;
    region.base = used_;
    region.size = size;
    used_ += size;
    regions_.push_back(region);
    return regions_.size() - 1;
}

Bytes
HbmRegionAllocator::translate(std::size_t region, Bytes offset) const
{
    if (region >= regions_.size())
        panic("HbmRegionAllocator: region ", region, " out of range");
    const HbmRegion &r = regions_[region];
    if (offset >= r.size)
        panic("HbmRegionAllocator: offset ", offset,
              " outside region of ", r.owner);
    return r.base + offset;
}

void
HbmRegionAllocator::reset()
{
    regions_.clear();
    used_ = 0;
}

} // namespace v10
