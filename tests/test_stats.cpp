/**
 * @file
 * Tests for the statistics primitives: streaming moments, exact
 * percentiles, histograms, and the geometric mean, including the
 * merge-equals-bulk property of OnlineStats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
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

/**
 * The sparse LogHistogram the dense one replaced, kept here as the
 * reference: same keys (octave * S + sub-bucket), same ascending
 * walk, counts in a std::map.
 */
class MapLogHistogram
{
  public:
    void
    add(double x)
    {
        if (count_ == 0) {
            min_ = max_ = x;
        } else {
            min_ = std::min(min_, x);
            max_ = std::max(max_, x);
        }
        ++count_;
        sum_ += x;
        if (!(x > 0.0)) {
            ++zero_;
            return;
        }
        int exp = 0;
        const double mant = std::frexp(x, &exp);
        auto idx = static_cast<std::int64_t>((mant - 0.5) * 2.0 *
                                             static_cast<double>(kSub));
        idx = std::clamp<std::int64_t>(idx, 0, kSub - 1);
        ++buckets_[static_cast<std::int64_t>(exp) * kSub + idx];
    }

    void
    merge(const MapLogHistogram &o)
    {
        if (o.count_ == 0)
            return;
        min_ = count_ ? std::min(min_, o.min_) : o.min_;
        max_ = count_ ? std::max(max_, o.max_) : o.max_;
        count_ += o.count_;
        sum_ += o.sum_;
        zero_ += o.zero_;
        for (const auto &[key, n] : o.buckets_)
            buckets_[key] += n;
    }

    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        if (p <= 0.0)
            return min_;
        if (p >= 100.0)
            return max_;
        const double rank =
            p / 100.0 * static_cast<double>(count_ - 1);
        const auto target = static_cast<std::uint64_t>(rank);
        std::uint64_t cum = zero_;
        if (target < cum)
            return std::clamp(0.0, min_, max_);
        for (const auto &[key, n] : buckets_) {
            cum += n;
            if (target < cum) {
                std::int64_t exp = key / kSub;
                std::int64_t idx = key % kSub;
                if (idx < 0) {
                    idx += kSub;
                    --exp;
                }
                const double mant =
                    0.5 + (static_cast<double>(idx) + 0.5) /
                              (2.0 * static_cast<double>(kSub));
                return std::clamp(
                    std::ldexp(mant, static_cast<int>(exp)), min_,
                    max_);
            }
        }
        return max_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    static constexpr std::int64_t kSub = 64;
    std::map<std::int64_t, std::uint64_t> buckets_;
    std::uint64_t zero_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Every side statistic and a fine percentile grid, bit for bit. */
void
expectSameAsReference(const LogHistogram &h, const MapLogHistogram &ref,
                      const char *what)
{
    ASSERT_EQ(h.count(), ref.count()) << what;
    EXPECT_EQ(h.sum(), ref.sum()) << what;
    EXPECT_EQ(h.min(), ref.min()) << what;
    EXPECT_EQ(h.max(), ref.max()) << what;
    for (int i = 0; i <= 1000; ++i) {
        const double p = i / 10.0;
        EXPECT_EQ(h.percentile(p), ref.percentile(p))
            << what << " p" << p;
    }
    for (double p : {99.9, 99.99, 0.01, 33.333})
        EXPECT_EQ(h.percentile(p), ref.percentile(p))
            << what << " p" << p;
}

TEST(LogHistogram, DenseCountsMatchTheMapReferenceBitForBit)
{
    // 20k samples per shape: serving-like latencies, sub-0.5 values
    // (negative octave keys), a 60-octave log-uniform spread, and a
    // mix with zeros and negatives in the zero bucket.
    Rng rng(20261017);
    for (int shape = 0; shape < 4; ++shape) {
        LogHistogram h;
        MapLogHistogram ref;
        for (int i = 0; i < 20000; ++i) {
            double x = 0.0;
            switch (shape) {
              case 0: x = std::exp(rng.normal(7.0, 1.2)); break;
              case 1: x = rng.uniform() * 0.49; break;
              case 2: x = std::ldexp(1.0 + rng.uniform(),
                                     static_cast<int>(
                                         rng.uniform() * 60.0) - 30);
                break;
              default:
                x = rng.uniform() < 0.1 ? -rng.uniform()
                                        : rng.exponential(3.0);
                break;
            }
            h.add(x);
            ref.add(x);
        }
        expectSameAsReference(h, ref, "shape");
    }
}

TEST(LogHistogram, SamplesBelowHalfUseNegativeOctaves)
{
    // frexp puts x < 0.5 in octave <= -1; the bucket midpoint must
    // map back through floor division, within half a sub-bucket.
    LogHistogram h;
    MapLogHistogram ref;
    for (double x : {0.001, 0.002, 0.3, 0.49, 0.0004}) {
        h.add(x);
        ref.add(x);
    }
    expectSameAsReference(h, ref, "sub-half");
    const double bound =
        1.0 / (2.0 * static_cast<double>(h.subBuckets())) + 1e-12;
    // Rank 1 of 5 is the 0.001 sample.
    EXPECT_NEAR(h.percentile(25.0), 0.001, bound * 0.001);
    EXPECT_NEAR(h.percentile(50.0), 0.002, bound * 0.002);
}

TEST(LogHistogram, SpansMoreThanFortyOctaves)
{
    // 1e-6 to 1e9 is about 50 octaves: the dense array covers every
    // octave in between, and the walk still lands on the right
    // samples.
    LogHistogram h;
    MapLogHistogram ref;
    const std::vector<double> xs = {1e9, 1e-6, 3.0, 5e4, 2e-3, 7e8};
    for (double x : xs) {
        h.add(x);
        ref.add(x);
    }
    expectSameAsReference(h, ref, "wide");
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    const double bound =
        1.0 / (2.0 * static_cast<double>(h.subBuckets())) + 1e-12;
    for (double p : {20.0, 40.0, 60.0, 80.0}) {
        const double want = sorted[static_cast<std::size_t>(
            p / 100.0 * static_cast<double>(sorted.size() - 1))];
        EXPECT_NEAR(h.percentile(p), want, bound * want) << p;
    }
}

TEST(LogHistogram, DisjointMergesAgreeInBothOrders)
{
    // Low and high ranges that share no octave, merged each way and
    // into/from empty histograms, equal the bulk reference.
    Rng rng(7);
    LogHistogram lo;
    LogHistogram hi;
    MapLogHistogram bulk;
    for (int i = 0; i < 3000; ++i) {
        const double a = 1e-3 * (1.0 + 9.0 * rng.uniform());
        const double b = 1e6 * (1.0 + 9.0 * rng.uniform());
        lo.add(a);
        hi.add(b);
        bulk.add(a);
        bulk.add(b);
    }
    LogHistogram lohi;
    lohi.merge(lo);
    lohi.merge(hi);
    LogHistogram hilo;
    hilo.merge(hi);
    hilo.merge(lo);
    LogHistogram empty;
    hilo.merge(empty);
    // Sums differ only in addition order: compare the buckets.
    for (int i = 0; i <= 100; ++i) {
        const double p = static_cast<double>(i);
        EXPECT_EQ(lohi.percentile(p), bulk.percentile(p)) << p;
        EXPECT_EQ(hilo.percentile(p), bulk.percentile(p)) << p;
    }
    EXPECT_EQ(lohi.count(), bulk.count());
    EXPECT_EQ(hilo.count(), bulk.count());
    EXPECT_EQ(lohi.min(), bulk.min());
    EXPECT_EQ(hilo.max(), bulk.max());
}

TEST(LogHistogram, BucketsStayExactPastThirtyTwoBits)
{
    // Bucket counts are 32-bit words with carried high words. Doubling
    // by merging a copy drives buckets past 2^32 - 1 without four
    // billion add() calls. Bucket a goes 1, 3, 7, ..., 2^32 - 1 (merge,
    // then add), so the next add() wraps its word; the others only
    // double, so a merge's word sum wraps. The 64-bit map reference
    // takes the same steps.
    LogHistogram h;
    MapLogHistogram ref;
    const double a = 1500.0;
    const double b = 3.0e5;
    const double c = 0.25;
    for (double x : {a, b, c, 0.0}) {
        h.add(x);
        ref.add(x);
    }
    const auto doubleUp = [&](bool addA) {
        const LogHistogram hCopy = h;
        h.merge(hCopy);
        const MapLogHistogram refCopy = ref;
        ref.merge(refCopy);
        if (addA) {
            h.add(a);
            ref.add(a);
        }
    };
    for (int i = 0; i < 31; ++i)
        doubleUp(true);
    h.add(a); // a: 2^32 - 1 -> 2^32 through add()
    ref.add(a);
    expectSameAsReference(h, ref, "add carry");
    doubleUp(false); // b, c: 2^31 -> 2^32 through merge()
    doubleUp(false); // and both carried buckets double again
    expectSameAsReference(h, ref, "merge carry");
    // zero, c, a, b hold 2^33, 2^33, 2^34, 2^33 samples.
    EXPECT_EQ(h.count(), std::uint64_t{5} << 33);
    const double bound =
        1.0 / (2.0 * static_cast<double>(h.subBuckets())) + 1e-12;
    EXPECT_EQ(h.percentile(10.0), 0.0);
    EXPECT_NEAR(h.percentile(30.0), c, bound * c);
    EXPECT_NEAR(h.percentile(50.0), a, bound * a);
    EXPECT_NEAR(h.percentile(79.0), a, bound * a);
    EXPECT_NEAR(h.percentile(81.0), b, bound * b);
}

TEST(LogHistogram, ResetThenReuseMatchesAFreshHistogram)
{
    LogHistogram h;
    for (double x : {1e-5, 2.0, 3e7, 0.0})
        h.add(x);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    // Reuse on a range disjoint from the first fill.
    LogHistogram fresh;
    MapLogHistogram ref;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const double x = 1e12 * (1.0 + rng.uniform());
        h.add(x);
        fresh.add(x);
        ref.add(x);
    }
    expectSameAsReference(h, ref, "reused");
    for (double p : {1.0, 50.0, 99.0})
        EXPECT_EQ(h.percentile(p), fresh.percentile(p)) << p;
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

namespace v10 {
namespace {

TEST(LogHistogram, PercentilesInOneWalkMatchSingleCalls)
{
    const std::vector<double> ps = {0.0, 0.5, 50.0, 50.0, 99.0,
                                    99.9, 99.99, 100.0};
    const auto expectSame = [&](const LogHistogram &h,
                                const std::string &what) {
        std::vector<double> out(ps.size());
        h.percentiles(ps, out);
        for (std::size_t i = 0; i < ps.size(); ++i)
            EXPECT_EQ(out[i], h.percentile(ps[i]))
                << what << " p" << ps[i];
    };
    expectSame(LogHistogram(), "empty");
    Rng rng(28);
    for (int shape = 0; shape < 40; ++shape) {
        LogHistogram h(1 + rng.uniformInt(64));
        const std::uint64_t n = 1 + rng.uniformInt(3000);
        const double scale = std::ldexp(1.0, static_cast<int>(
                                                 rng.uniformInt(40)) -
                                                 20);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t kind = rng.uniformInt(8);
            h.add(kind == 0 ? 0.0 : scale * rng.exponential(1.0) *
                                        (kind == 1 ? 1e4 : 1.0));
        }
        std::string what = "shape ";
        what += std::to_string(shape);
        expectSame(h, what);
        // Doubling by merging a copy drives the buckets past 2^32,
        // so the walk reads carried high words.
        if (shape % 8 == 0) {
            for (int d = 0; d < 33; ++d) {
                const LogHistogram copy = h;
                h.merge(copy);
            }
            expectSame(h, what + " carried");
        }
    }
}

} // namespace
} // namespace v10
