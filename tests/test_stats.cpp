/**
 * @file
 * Tests for the statistics primitives: streaming moments, exact
 * percentiles, histograms, and the geometric mean, including the
 * merge-equals-bulk property of OnlineStats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace v10 {
namespace {

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, BasicMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesBulk)
{
    Rng rng(5);
    OnlineStats bulk;
    OnlineStats a;
    OnlineStats b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 1.5);
        bulk.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), bulk.count());
    EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
    EXPECT_EQ(a.min(), bulk.min());
    EXPECT_EQ(a.max(), bulk.max());
}

TEST(OnlineStats, MergeWithEmpty)
{
    OnlineStats a;
    OnlineStats b;
    a.add(1.0);
    a.merge(b); // empty rhs
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // empty lhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(SampleSet, PercentilesExact)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.p95(), 95.05, 1e-9);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 100.0);
}

TEST(SampleSet, UnsortedInsertOrderIrrelevant)
{
    SampleSet s;
    for (double x : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(x);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
}

TEST(SampleSet, QueriesInterleavedWithAdds)
{
    SampleSet s;
    s.add(10.0);
    EXPECT_EQ(s.max(), 10.0);
    s.add(20.0);
    EXPECT_EQ(s.max(), 20.0); // sorted cache must refresh
    s.add(5.0);
    EXPECT_EQ(s.min(), 5.0);
}

TEST(SampleSet, EmptyIsZero)
{
    SampleSet s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(SampleSet, SingleSample)
{
    SampleSet s;
    s.add(7.5);
    EXPECT_EQ(s.percentile(0), 7.5);
    EXPECT_EQ(s.percentile(50), 7.5);
    EXPECT_EQ(s.percentile(100), 7.5);
}

TEST(LogHistogram, EmptyIsZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, ExactSideStats)
{
    LogHistogram h;
    for (double x : {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0})
        h.add(x);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_DOUBLE_EQ(h.sum(), 31.0);
    EXPECT_DOUBLE_EQ(h.mean(), 31.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(LogHistogram, QuantileErrorBoundedVsExactSort)
{
    // The HDR replacement for sort-based percentiles targets the
    // floor-rank order statistic (the same rank convention as
    // SampleSet before interpolation) and must land within the
    // advertised relative error — half a sub-bucket, 1/(2S) — of
    // that exact-sort value, across shapes that cover the serving
    // latency regimes: heavy-tailed, uniform, and multi-octave
    // lognormal.
    Rng rng(20260808);
    for (int shape = 0; shape < 3; ++shape) {
        LogHistogram h;
        std::vector<double> sorted;
        for (int i = 0; i < 20000; ++i) {
            double x = 0.0;
            switch (shape) {
              case 0: x = rng.exponential(250.0); break;
              case 1: x = 1.0 + rng.uniform() * 9999.0; break;
              default:
                x = std::exp(rng.normal(5.0, 1.5));
                break;
            }
            h.add(x);
            sorted.push_back(x);
        }
        std::sort(sorted.begin(), sorted.end());
        const double bound =
            1.0 / (2.0 * static_cast<double>(h.subBuckets())) +
            1e-12;
        for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
            const double rank =
                p / 100.0 * static_cast<double>(sorted.size() - 1);
            const double want = sorted[static_cast<std::size_t>(rank)];
            const double got = h.percentile(p);
            EXPECT_LE(std::abs(got - want), bound * want)
                << "shape " << shape << " p" << p << ": got " << got
                << " want " << want;
        }
        EXPECT_DOUBLE_EQ(h.percentile(0.0), sorted.front());
        EXPECT_DOUBLE_EQ(h.percentile(100.0), sorted.back());
    }
}

TEST(LogHistogram, QuantileClampedToObservedRange)
{
    LogHistogram h;
    h.add(100.0);
    h.add(101.0);
    EXPECT_GE(h.percentile(0.0), 100.0);
    EXPECT_LE(h.percentile(100.0), 101.0);
}

TEST(LogHistogram, ZeroAndNegativeCollapseToZeroBucket)
{
    LogHistogram h;
    h.add(0.0);
    h.add(-5.0);
    h.add(10.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    // The rank-1 sample sits in the non-positive bucket, whose
    // representative is 0 clamped into [min, max] — here exactly
    // the true median.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(LogHistogram, MergeIsOrderIndependentAndMatchesBulk)
{
    Rng rng(99);
    LogHistogram bulk;
    LogHistogram a;
    LogHistogram b;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.exponential(40.0);
        bulk.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    LogHistogram ab;
    ab.merge(a);
    ab.merge(b);
    LogHistogram ba;
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.count(), bulk.count());
    EXPECT_DOUBLE_EQ(ab.sum(), ba.sum());
    for (double p : {10.0, 50.0, 99.0}) {
        EXPECT_DOUBLE_EQ(ab.percentile(p), ba.percentile(p));
        EXPECT_DOUBLE_EQ(ab.percentile(p), bulk.percentile(p));
    }
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
    EXPECT_EQ(geomean({1.0, -2.0}), 0.0);
}

} // namespace
} // namespace v10
