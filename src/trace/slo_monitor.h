/**
 * @file
 * Online SLO monitoring over sim time: per-tenant completion and
 * violation counts land in a fixed grid of sim-time buckets, and
 * burn-rate queries read sliding windows off that grid. Burn rate is
 * the windowed violation rate divided by the tenant's error budget —
 * the SRE convention where burn == 1 means "exactly consuming the
 * budget" and an alert fires when both a short and a long window burn
 * faster than the threshold (multi-window, so a single stray
 * violation cannot page and a sustained breach cannot hide).
 *
 * Bucket counts are exact integers and merging is addition, so
 * per-core monitors merge into a cluster-wide one independent of
 * worker count or merge order — deterministic across `--jobs N`.
 */

#ifndef V10_TRACE_SLO_MONITOR_H
#define V10_TRACE_SLO_MONITOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace v10 {

/** Burn-rate policy; all thresholds deterministic constants. */
struct SloPolicy
{
    /** Fraction of requests allowed to violate their SLO. */
    double errorBudget = 0.01;
    /** Short window length as a fraction of run duration. */
    double shortWindowFrac = 0.125;
    /** Long window length as a fraction of run duration. */
    double longWindowFrac = 0.5;
    /** Alert when BOTH windows burn faster than this multiple. */
    double alertBurnRate = 2.0;
};

/** Burn-rate reading for one tenant at end of run. */
struct BurnRateStatus
{
    double shortBurn = 0.0;
    double longBurn = 0.0;
    bool alert = false;
};

/**
 * Sliding-window violation tracking for a fixed tenant set over a
 * fixed run duration.
 */
class SloMonitor
{
  public:
    /** Buckets per tenant in the sim-time grid. */
    static constexpr std::size_t kBuckets = 64;

    /**
     * @param tenants number of tenants
     * @param durationSec run duration (> 0)
     */
    SloMonitor(std::size_t tenants, double durationSec,
               SloPolicy policy = SloPolicy{});

    /** Record one completion at @p timeSec for tenant @p tenant. */
    void record(std::size_t tenant, double timeSec, bool violated);

    /**
     * Bulk-add pre-binned counts (the per-core outcome merge path;
     * bucket grids must use kBuckets over the same duration).
     */
    void
    addBucket(std::size_t tenant, std::size_t bucket,
              std::uint64_t done, std::uint64_t violations)
    {
        if (tenant >= tenants_ || bucket >= kBuckets)
            badBucket(tenant, bucket);
        const std::size_t i = tenant * kBuckets + bucket;
        doneHigh_.add(done_[i], static_cast<std::int64_t>(i), done);
        violationsHigh_.add(violations_[i], static_cast<std::int64_t>(i),
                            violations);
    }

    /** Map a sim time to its bucket index (clamped to the grid). */
    std::size_t bucketIndex(double timeSec) const
    {
        return bucketOf(timeSec);
    }

    /** Add another monitor's bucket counts (same shape required). */
    void merge(const SloMonitor &other);

    /**
     * Violation rate over the window (endSec - windowSec, endSec],
     * measured on whole buckets; 0 when no completions in range.
     */
    double violationRate(std::size_t tenant, double windowSec,
                         double endSec) const;

    /** Multi-window burn-rate status for @p tenant at end of run. */
    BurnRateStatus status(std::size_t tenant) const;

    /**
     * Online feedback hook: burn-rate status with both windows
     * ending at @p endSec instead of end-of-run, so mid-run control
     * loops (the serve-layer admission gate) can read the alert on
     * the deterministic bucket grid while the run is in flight.
     */
    BurnRateStatus statusAt(std::size_t tenant, double endSec) const;

    std::size_t tenants() const { return tenants_; }
    double durationSec() const { return duration_; }
    const SloPolicy &policy() const { return policy_; }

  private:
    std::size_t
    bucketOf(double timeSec) const
    {
        if (timeSec <= 0.0)
            return 0;
        auto b = static_cast<std::size_t>(timeSec / duration_ *
                                          static_cast<double>(kBuckets));
        return std::min(b, kBuckets - 1);
    }

    /** The panic of an addBucket outside the grid. */
    [[noreturn, gnu::cold]] static void badBucket(std::size_t tenant,
                                                  std::size_t bucket);

    std::size_t tenants_;
    double duration_;
    SloPolicy policy_;
    /** tenant-major: tenants_ x kBuckets, the low 32 bits of each
     * count; the high words live in the carries, by cell index. */
    std::vector<std::uint32_t> done_;
    std::vector<std::uint32_t> violations_;
    CountCarries doneHigh_;
    CountCarries violationsHigh_;
};

} // namespace v10

#endif // V10_TRACE_SLO_MONITOR_H
