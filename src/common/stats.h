/**
 * @file
 * Lightweight statistics primitives used by the metrics layer and the
 * bench harness: streaming moments, percentile estimation over stored
 * samples, and log-bucketed histograms.
 */

#ifndef V10_COMMON_STATS_H
#define V10_COMMON_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace v10 {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 * O(1) memory; suitable for per-operator statistics over long runs.
 */
class OnlineStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const OnlineStats &other);

    /** Number of samples added. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance; 0 for fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample; 0 when empty. */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest sample; 0 when empty. */
    double max() const { return count_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Sample store with exact percentile queries. Stores every sample;
 * intended for per-request latencies (thousands of samples), not
 * per-cycle data.
 */
class SampleSet
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples. */
    std::size_t count() const { return samples_.size(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /**
     * Exact percentile by linear interpolation between closest ranks.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Convenience: 95th percentile (the paper's tail metric). */
    double p95() const { return percentile(95.0); }

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** All samples in insertion order. */
    const std::vector<double> &samples() const { return samples_; }

    /** Reset to the empty state. */
    void reset();

  private:
    /** Sort the mutable cache if new samples arrived. */
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_ = false;
};

/**
 * The high words of exact 64-bit counters kept as 32-bit words. A
 * counter's word holds its low 32 bits; this list holds (key, high
 * 32 bits) for each counter that has passed 2^32 - 1, sorted by key.
 * Short of four billion events in one counter the list stays empty,
 * so a counter costs 4 bytes, not 8, and stays exact past any bound.
 * The key is whatever index the owner gives its counter.
 */
class CountCarries
{
  public:
    /** Add one to the counter (@p word, @p key). */
    void
    increment(std::uint32_t &word, std::int64_t key)
    {
        if (++word == 0) [[unlikely]]
            carry(key, 1);
    }

    /** Add @p v to the counter (@p word, @p key). */
    void
    add(std::uint32_t &word, std::int64_t key, std::uint64_t v)
    {
        const std::uint64_t low =
            std::uint64_t{word} + (v & 0xffffffffu);
        word = static_cast<std::uint32_t>(low);
        const std::uint64_t high = (v >> 32) + (low >> 32);
        if (high != 0) [[unlikely]]
            carry(key, high);
    }

    /** The exact value of the counter (@p word, @p key). */
    std::uint64_t
    value(std::uint32_t word, std::int64_t key) const
    {
        return high_.empty() ? word : word + (highOf(key) << 32);
    }

    /** Add every high word of @p other (the words' sums are the
     * owner's, through add()). */
    void merge(const CountCarries &other);

    /** Drop every high word. */
    void clear() { high_.clear(); }

  private:
    /** Add @p high to key's high word (a sorted insert). */
    [[gnu::cold]] void carry(std::int64_t key, std::uint64_t high);
    std::uint64_t highOf(std::int64_t key) const;

    std::vector<std::pair<std::int64_t, std::uint64_t>> high_;
};

/**
 * HDR-style log-bucketed histogram with O(1) insertion and bounded
 * relative quantile error. Positive samples land in a bucket keyed by
 * (binary octave, linear sub-bucket within the octave); with S
 * sub-buckets per octave the relative bucket width is 1/(2S), so
 * quantile estimates are within ~1/(2S) of the exact-sort answer
 * (under 1% for the default S = 64). Non-positive samples collapse
 * into a single zero bucket. Exact count/sum/min/max are kept on the
 * side, and quantile results are clamped to [min, max]. The counts
 * live in one dense array over the whole octaves touched so far, so
 * memory is S 32-bit counters per octave between the smallest and
 * largest positive sample; a bucket past 2^32 - 1 keeps its high
 * word in a CountCarries list, so counts stay exact.
 *
 * Merging is plain bucket-count addition, so merged results are
 * independent of merge order — safe for deterministic parallel
 * reduction.
 */
class LogHistogram
{
  public:
    /** @param subBuckets linear sub-buckets per octave (> 0). */
    explicit LogHistogram(std::size_t subBuckets = 64);

    /** Add one sample. O(1), plus a one-off copy of the counts
     * when the sample opens a new lowest or highest octave. */
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
        const double mant = std::frexp(x, &exp); // mant in [0.5, 1)
        auto idx = static_cast<std::int64_t>((mant - 0.5) * 2.0 *
                                             static_cast<double>(sub_));
        if (idx >= static_cast<std::int64_t>(sub_))
            idx = static_cast<std::int64_t>(sub_) - 1;
        if (idx < 0)
            idx = 0;
        const auto sub = static_cast<std::int64_t>(sub_);
        std::int64_t k = (exp - loOctave_) * sub + idx;
        if (counts_.empty() || k < 0 ||
            k >= static_cast<std::int64_t>(counts_.size())) {
            cover(exp, exp);
            k = (exp - loOctave_) * sub + idx;
        }
        carries_.increment(counts_[static_cast<std::size_t>(k)],
                           exp * sub + idx);
    }

    /** Add every bucket of @p other into this histogram. */
    void merge(const LogHistogram &other);

    /** Number of samples added. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean from the exact sum; 0 when empty. */
    double mean() const;

    /** Exact smallest sample; 0 when empty. */
    double min() const { return count_ ? min_ : 0.0; }

    /** Exact largest sample; 0 when empty. */
    double max() const { return count_ ? max_ : 0.0; }

    /** Exact sum of all samples. */
    double sum() const { return sum_; }

    /**
     * Approximate percentile (p in [0, 100]) via cumulative bucket
     * walk; relative error bounded by the sub-bucket width.
     */
    double percentile(double p) const;

    /** percentile(ps[i]) into out[i] for every i, in one bucket walk;
     * @p ps must be ascending. */
    void percentiles(std::span<const double> ps,
                     std::span<double> out) const;

    /** Sub-buckets per octave. */
    std::size_t subBuckets() const { return sub_; }

    /** Reset to the empty state and free the counts (keeps the bucket
     * resolution). */
    void reset();

  private:
    /** Representative value (bucket midpoint) for a bucket key. */
    double bucketMid(std::int64_t key) const;

    /** Widen counts_ to whole octaves covering [loOct, hiOct]. */
    void cover(std::int64_t loOct, std::int64_t hiOct);

    std::size_t sub_;
    /** counts_[k] = low 32 bits of the samples with key
     * loOctave_ * sub_ + k, where key = octave * sub_ + subIndex;
     * empty until the first positive sample. */
    std::vector<std::uint32_t> counts_;
    /** The high words, by key (so cover() leaves them alone). */
    CountCarries carries_;
    std::int64_t loOctave_ = 0;
    std::uint64_t zero_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Geometric mean of a vector; 0 if empty or any element <= 0. */
double geomean(const std::vector<double> &xs);

} // namespace v10

#endif // V10_COMMON_STATS_H
