#include "trace/slo_monitor.h"

#include <algorithm>

#include "common/log.h"

namespace v10 {

SloMonitor::SloMonitor(std::size_t tenants, double durationSec,
                       SloPolicy policy)
    : tenants_(tenants), duration_(durationSec), policy_(policy),
      done_(tenants * kBuckets, 0), violations_(tenants * kBuckets, 0)
{
    if (durationSec <= 0.0)
        V10_PANIC("SloMonitor: duration must be positive");
}

void
SloMonitor::record(std::size_t tenant, double timeSec, bool violated)
{
    if (tenant >= tenants_)
        V10_PANIC("SloMonitor: tenant ", tenant, " out of range");
    const std::size_t idx = tenant * kBuckets + bucketOf(timeSec);
    const auto key = static_cast<std::int64_t>(idx);
    doneHigh_.increment(done_[idx], key);
    if (violated)
        violationsHigh_.increment(violations_[idx], key);
}

void
SloMonitor::badBucket(std::size_t tenant, std::size_t bucket)
{
    V10_PANIC("SloMonitor: addBucket(", tenant, ", ", bucket,
              ") out of range");
}

void
SloMonitor::merge(const SloMonitor &other)
{
    if (other.tenants_ != tenants_ || other.duration_ != duration_)
        V10_PANIC("SloMonitor: merge shape mismatch");
    for (std::size_t i = 0; i < done_.size(); ++i) {
        const auto key = static_cast<std::int64_t>(i);
        doneHigh_.add(done_[i], key, other.done_[i]);
        violationsHigh_.add(violations_[i], key, other.violations_[i]);
    }
    doneHigh_.merge(other.doneHigh_);
    violationsHigh_.merge(other.violationsHigh_);
}

double
SloMonitor::violationRate(std::size_t tenant, double windowSec,
                          double endSec) const
{
    if (tenant >= tenants_)
        V10_PANIC("SloMonitor: tenant ", tenant, " out of range");
    const std::size_t hi = bucketOf(endSec);
    const double startSec = std::max(0.0, endSec - windowSec);
    const std::size_t lo = bucketOf(startSec);
    std::uint64_t done = 0;
    std::uint64_t viol = 0;
    for (std::size_t b = lo; b <= hi; ++b) {
        const std::size_t i = tenant * kBuckets + b;
        const auto key = static_cast<std::int64_t>(i);
        done += doneHigh_.value(done_[i], key);
        viol += violationsHigh_.value(violations_[i], key);
    }
    if (done == 0)
        return 0.0;
    return static_cast<double>(viol) / static_cast<double>(done);
}

BurnRateStatus
SloMonitor::status(std::size_t tenant) const
{
    return statusAt(tenant, duration_);
}

BurnRateStatus
SloMonitor::statusAt(std::size_t tenant, double endSec) const
{
    BurnRateStatus out;
    const double shortWin = duration_ * policy_.shortWindowFrac;
    const double longWin = duration_ * policy_.longWindowFrac;
    out.shortBurn = violationRate(tenant, shortWin, endSec) /
                    policy_.errorBudget;
    out.longBurn =
        violationRate(tenant, longWin, endSec) / policy_.errorBudget;
    out.alert = out.shortBurn > policy_.alertBurnRate &&
                out.longBurn > policy_.alertBurnRate;
    return out;
}

} // namespace v10
