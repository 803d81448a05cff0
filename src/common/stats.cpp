#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"

namespace v10 {

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
OnlineStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

void
SampleSet::add(double x)
{
    samples_.push_back(x);
    dirty_ = true;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

void
SampleSet::ensureSorted() const
{
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
}

double
SampleSet::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (p <= 0.0)
        return sorted_.front();
    if (p >= 100.0)
        return sorted_.back();
    const double rank =
        p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo_idx = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo_idx);
    if (lo_idx + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[lo_idx] * (1.0 - frac) + sorted_[lo_idx + 1] * frac;
}

double
SampleSet::max() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return sorted_.back();
}

double
SampleSet::min() const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    return sorted_.front();
}

void
SampleSet::reset()
{
    samples_.clear();
    sorted_.clear();
    dirty_ = false;
}

void
CountCarries::carry(std::int64_t key, std::uint64_t high)
{
    const auto it = std::lower_bound(
        high_.begin(), high_.end(), key,
        [](const auto &e, std::int64_t k) { return e.first < k; });
    if (it != high_.end() && it->first == key)
        it->second += high;
    else
        high_.insert(it, {key, high});
}

std::uint64_t
CountCarries::highOf(std::int64_t key) const
{
    const auto it = std::lower_bound(
        high_.begin(), high_.end(), key,
        [](const auto &e, std::int64_t k) { return e.first < k; });
    return it != high_.end() && it->first == key ? it->second : 0;
}

void
CountCarries::merge(const CountCarries &other)
{
    for (const auto &[key, high] : other.high_)
        carry(key, high);
}

LogHistogram::LogHistogram(std::size_t subBuckets) : sub_(subBuckets)
{
    if (subBuckets == 0)
        panic("LogHistogram: need subBuckets > 0");
}

void
LogHistogram::cover(std::int64_t loOct, std::int64_t hiOct)
{
    const auto sub = static_cast<std::int64_t>(sub_);
    if (counts_.empty()) {
        loOctave_ = loOct;
        counts_.assign(static_cast<std::size_t>((hiOct - loOct + 1) * sub),
                       0);
        return;
    }
    const std::int64_t oldHi =
        loOctave_ + static_cast<std::int64_t>(counts_.size()) / sub - 1;
    const std::int64_t lo = std::min(loOct, loOctave_);
    const std::int64_t hi = std::max(hiOct, oldHi);
    if (lo == loOctave_ && hi == oldHi)
        return;
    std::vector<std::uint32_t> wider(
        static_cast<std::size_t>((hi - lo + 1) * sub), 0);
    std::copy(counts_.begin(), counts_.end(),
              wider.begin() + (loOctave_ - lo) * sub);
    counts_ = std::move(wider);
    loOctave_ = lo;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.sub_ != sub_)
        panic("LogHistogram::merge: resolution mismatch");
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zero_ += other.zero_;
    if (other.counts_.empty())
        return;
    const auto sub = static_cast<std::int64_t>(sub_);
    cover(other.loOctave_,
          other.loOctave_ +
              static_cast<std::int64_t>(other.counts_.size()) / sub - 1);
    const std::size_t offset =
        static_cast<std::size_t>((other.loOctave_ - loOctave_) * sub);
    const std::int64_t base = other.loOctave_ * sub;
    for (std::size_t k = 0; k < other.counts_.size(); ++k)
        carries_.add(counts_[offset + k],
                     base + static_cast<std::int64_t>(k),
                     other.counts_[k]);
    carries_.merge(other.carries_);
}

double
LogHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
LogHistogram::bucketMid(std::int64_t key) const
{
    const auto sub = static_cast<std::int64_t>(sub_);
    // Floor division so negative keys map back to their octave.
    std::int64_t exp = key / sub;
    std::int64_t idx = key % sub;
    if (idx < 0) {
        idx += sub;
        --exp;
    }
    const double mant = 0.5 + (static_cast<double>(idx) + 0.5) /
                                  (2.0 * static_cast<double>(sub_));
    return std::ldexp(mant, static_cast<int>(exp));
}

double
LogHistogram::percentile(double p) const
{
    double out = 0.0;
    percentiles({&p, 1}, {&out, 1});
    return out;
}

void
LogHistogram::percentiles(std::span<const double> ps,
                          std::span<double> out) const
{
    if (out.size() != ps.size())
        panic("LogHistogram::percentiles: ", ps.size(),
              " percentiles into ", out.size(), " slots");
    const std::int64_t base =
        loOctave_ * static_cast<std::int64_t>(sub_);
    // cum counts the samples below bucket k: the walk only moves
    // forward, since the targets ascend.
    std::uint64_t cum = zero_;
    std::size_t k = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double p = ps[i];
        if (i > 0 && p < ps[i - 1])
            panic("LogHistogram::percentiles: not ascending");
        if (count_ == 0) {
            out[i] = 0.0;
            continue;
        }
        if (p <= 0.0) {
            out[i] = min_;
            continue;
        }
        if (p >= 100.0) {
            out[i] = max_;
            continue;
        }
        // Target the same rank convention as SampleSet::percentile.
        const double rank =
            p / 100.0 * static_cast<double>(count_ - 1);
        const auto target = static_cast<std::uint64_t>(rank);
        if (target < zero_) {
            out[i] = std::clamp(0.0, min_, max_);
            continue;
        }
        while (!(target < cum) && k < counts_.size()) {
            cum += carries_.value(counts_[k],
                                  base + static_cast<std::int64_t>(k));
            ++k;
        }
        out[i] = target < cum
                     ? std::clamp(bucketMid(base +
                                            static_cast<std::int64_t>(k) -
                                            1),
                                  min_, max_)
                     : max_;
    }
}

void
LogHistogram::reset()
{
    counts_ = std::vector<std::uint32_t>(); // frees, unlike clear()
    carries_.clear();
    loOctave_ = 0;
    zero_ = 0;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace v10
