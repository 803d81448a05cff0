/**
 * @file
 * Property tests for the open-loop arrival generators: Poisson
 * moments against theory, diurnal periodicity, bursty
 * over-dispersion, seeded determinism, duration-prefix stability,
 * disjoint-stream independence, the lazy feeds' equality with the
 * eager streams, and the per-core heap order against a linear scan
 * (docs/SERVING.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "serve/arrival.h"
#include "serve/core_sim.h"

namespace v10 {
namespace {

/** Count arrivals into fixed-width bins over [0, duration). */
std::vector<double>
binCounts(const std::vector<double> &times, double durationSec,
          double binSec)
{
    const auto bins =
        static_cast<std::size_t>(durationSec / binSec);
    std::vector<double> counts(bins, 0.0);
    for (double t : times) {
        const auto b = static_cast<std::size_t>(t / binSec);
        if (b < bins)
            counts[b] += 1.0;
    }
    return counts;
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    const double m = mean(xs);
    double sum = 0.0;
    for (double x : xs)
        sum += (x - m) * (x - m);
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

TEST(ArrivalPoisson, MeanAndVarianceMatchTheory)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rps = 200.0;
    const double duration = 100.0;
    ArrivalProcess process(spec, 42);
    const std::vector<double> times = process.generate(duration);

    // Count ~ Poisson(rps * duration): mean within 3 sigma.
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                3.0 * std::sqrt(expected));

    // Per-bin counts ~ Poisson(rps * bin): index of dispersion
    // (variance / mean) is 1 for a Poisson process.
    const std::vector<double> counts =
        binCounts(times, duration, 0.1);
    const double iod = variance(counts) / mean(counts);
    EXPECT_NEAR(iod, 1.0, 0.15);

    // Inter-arrival gaps are exponential with mean 1 / rps.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i)
        gaps.push_back(times[i] - times[i - 1]);
    EXPECT_NEAR(mean(gaps), 1.0 / spec.rps, 0.05 / spec.rps);
    // Exponential: stddev equals the mean.
    EXPECT_NEAR(std::sqrt(variance(gaps)), 1.0 / spec.rps,
                0.1 / spec.rps);
}

TEST(ArrivalPoisson, TimesAreStrictlyIncreasingInHorizon)
{
    ArrivalSpec spec;
    spec.rps = 500.0;
    ArrivalProcess process(spec, 7);
    const std::vector<double> times = process.generate(10.0);
    ASSERT_FALSE(times.empty());
    EXPECT_GE(times.front(), 0.0);
    EXPECT_LT(times.back(), 10.0);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
}

TEST(ArrivalDiurnal, PeriodicityShowsInPhaseCounts)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.rps = 100.0;
    spec.amplitude = 0.8;
    spec.periodSec = 10.0;
    const double duration = 200.0;
    ArrivalProcess process(spec, 11);
    const std::vector<double> times = process.generate(duration);

    // The mean rate is preserved: thinning only reshapes in time.
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                4.0 * std::sqrt(expected));

    // sin > 0 in the first half of each period, so the first half
    // carries rate rps * (1 + 2a/pi) and the second rps * (1 -
    // 2a/pi): the per-half ratio must show the modulation.
    double first = 0.0;
    double second = 0.0;
    for (double t : times) {
        const double phase = std::fmod(t, spec.periodSec);
        (phase < spec.periodSec / 2.0 ? first : second) += 1.0;
    }
    const double up = 1.0 + 2.0 * spec.amplitude / M_PI;
    const double down = 1.0 - 2.0 * spec.amplitude / M_PI;
    EXPECT_NEAR(first / second, up / down, 0.15 * up / down);
}

TEST(ArrivalDiurnal, ZeroAmplitudeIsPoissonLike)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.rps = 150.0;
    spec.amplitude = 0.0;
    ArrivalProcess process(spec, 3);
    const std::vector<double> times = process.generate(100.0);
    const std::vector<double> counts = binCounts(times, 100.0, 0.2);
    EXPECT_NEAR(variance(counts) / mean(counts), 1.0, 0.2);
}

TEST(ArrivalBursty, OverdispersedAgainstPoisson)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rps = 100.0;
    spec.meanOnSec = 0.2;
    spec.meanOffSec = 0.8;
    const double duration = 400.0;
    ArrivalProcess process(spec, 99);
    const std::vector<double> times = process.generate(duration);

    // Long-run mean stays rps (on-rate is rps / duty).
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                0.1 * expected);

    // Markov modulation makes counts over-dispersed: the index of
    // dispersion clearly exceeds the Poisson value of 1.
    const std::vector<double> counts =
        binCounts(times, duration, 0.5);
    EXPECT_GT(variance(counts) / mean(counts), 1.5);
}

TEST(ArrivalProcess, SameSeedSameStream)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.rps = 80.0;
        ArrivalProcess a(spec, 1234);
        ArrivalProcess b(spec, 1234);
        EXPECT_EQ(a.generate(20.0), b.generate(20.0))
            << arrivalKindName(kind);
    }
}

TEST(ArrivalProcess, GenerateIsAPrefixFunctionOfDuration)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.rps = 60.0;
        ArrivalProcess a(spec, 5);
        ArrivalProcess b(spec, 5);
        const std::vector<double> shorter = a.generate(5.0);
        const std::vector<double> longer = b.generate(15.0);
        ASSERT_LE(shorter.size(), longer.size())
            << arrivalKindName(kind);
        for (std::size_t i = 0; i < shorter.size(); ++i)
            EXPECT_EQ(shorter[i], longer[i])
                << arrivalKindName(kind);
    }
}

TEST(ArrivalProcess, DerivedStreamsAreDisjoint)
{
    ArrivalSpec spec;
    spec.rps = 100.0;
    const std::uint64_t run_seed = 17;
    ArrivalProcess a(spec, Rng::deriveStream(run_seed, 0));
    ArrivalProcess b(spec, Rng::deriveStream(run_seed, 1));
    const std::vector<double> sa = a.generate(10.0);
    const std::vector<double> sb = b.generate(10.0);
    ASSERT_FALSE(sa.empty());
    ASSERT_FALSE(sb.empty());
    EXPECT_NE(sa, sb);

    // Independence in the second-moment sense: the per-bin counts
    // of distinct streams are (nearly) uncorrelated.
    const std::vector<double> ca = binCounts(sa, 10.0, 0.1);
    const std::vector<double> cb = binCounts(sb, 10.0, 0.1);
    const double ma = mean(ca);
    const double mb = mean(cb);
    double cov = 0.0;
    for (std::size_t i = 0; i < ca.size(); ++i)
        cov += (ca[i] - ma) * (cb[i] - mb);
    cov /= static_cast<double>(ca.size());
    const double corr =
        cov / std::sqrt(variance(ca) * variance(cb));
    EXPECT_LT(std::fabs(corr), 0.2);
}

TEST(ArrivalProcess, ZeroRateAndZeroDurationAreEmpty)
{
    ArrivalSpec spec;
    spec.rps = 0.0;
    ArrivalProcess idle(spec, 1);
    EXPECT_TRUE(idle.generate(10.0).empty());
    spec.rps = 50.0;
    ArrivalProcess busy(spec, 1);
    EXPECT_TRUE(busy.generate(0.0).empty());
}

TEST(ArrivalSpec, CheckRejectsBadFields)
{
    ArrivalSpec spec;
    spec.rps = -1.0;
    EXPECT_FALSE(spec.check());

    spec.rps = 10.0;
    spec.kind = ArrivalKind::Diurnal;
    spec.amplitude = 1.0;
    EXPECT_FALSE(spec.check());
    spec.amplitude = 0.5;
    spec.periodSec = 0.0;
    EXPECT_FALSE(spec.check());
    spec.periodSec = 60.0;
    EXPECT_TRUE(spec.check());

    spec.kind = ArrivalKind::Bursty;
    spec.meanOnSec = -0.1;
    EXPECT_FALSE(spec.check());
    spec.meanOnSec = 0.5;
    spec.meanOffSec = 0.0;
    EXPECT_FALSE(spec.check());
    spec.meanOffSec = 1.0;
    EXPECT_TRUE(spec.check());
}

TEST(ArrivalProcess, NextMatchesGenerateForEveryHorizon)
{
    // The lazy stream is a duration-prefix function: drawn with
    // next() and cut at any horizon it equals generate() of a fresh
    // process, for every kind, seed and horizon.
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        for (std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
            for (double horizon : {0.25, 3.0, 20.0}) {
                ArrivalSpec spec;
                spec.kind = kind;
                spec.rps = seed == 7 ? 400.0 : 50.0;
                spec.periodSec = 2.0;
                ArrivalProcess eager(spec, seed);
                ArrivalProcess lazy(spec, seed);
                const std::vector<double> want =
                    eager.generate(horizon);
                std::vector<double> got;
                for (double t = lazy.next(); t < horizon;
                     t = lazy.next())
                    got.push_back(t);
                EXPECT_EQ(got, want)
                    << arrivalKindName(kind) << " seed " << seed
                    << " horizon " << horizon;
            }
        }
    }
    ArrivalSpec idle;
    ArrivalProcess none(idle, 3);
    EXPECT_EQ(none.next(), std::numeric_limits<double>::infinity());
}

/** Derived-stream salt of the flood draws (above tenant and core
 * streams). */
constexpr std::uint64_t kFloodSalt = 1ull << 33;

/**
 * The eager flood augmentation the lazy feeds replaced: materialize
 * every stream, then append each hit's burst copies in place,
 * spending shared caps in tenant-index order.
 */
std::vector<std::vector<double>>
eagerStreams(const std::vector<ArrivalSpec> &specs, std::uint64_t seed,
             double horizon, std::vector<FloodSource> sources)
{
    const std::size_t n = specs.size();
    std::vector<std::vector<double>> streams(n);
    for (std::size_t i = 0; i < n; ++i) {
        ArrivalProcess process(specs[i], Rng::deriveStream(seed, i));
        streams[i] = process.generate(horizon);
    }
    std::vector<std::uint64_t> fired(sources.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
        bool applicable = false;
        for (const FloodSource &s : sources)
            applicable = applicable || s.appliesTo(i);
        if (!applicable)
            continue;
        Rng frng(Rng::deriveStream(seed, kFloodSalt + i));
        std::vector<double> out;
        for (double t : streams[i]) {
            out.push_back(t);
            for (std::size_t k = 0; k < sources.size(); ++k) {
                const FloodSource &s = sources[k];
                if (!s.appliesTo(i))
                    continue;
                if (t < s.afterSec ||
                    (s.untilSec > 0.0 && t >= s.untilSec))
                    continue;
                if (!(frng.uniform() < s.prob))
                    continue;
                if (s.maxCount > 0 && fired[k] >= s.maxCount)
                    continue;
                ++fired[k];
                for (std::uint64_t c = 0; c < s.burst; ++c)
                    out.push_back(t);
            }
        }
        streams[i] = std::move(out);
    }
    return streams;
}

/** Every feed of @p plan, drained. */
std::vector<std::vector<double>>
drain(const ArrivalPlan &plan, std::size_t tenants)
{
    std::vector<std::vector<double>> streams(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
        ArrivalFeed feed = plan.feed(i);
        for (double t = feed.next();
             t < std::numeric_limits<double>::infinity();
             t = feed.next())
            streams[i].push_back(t);
    }
    return streams;
}

/** Six tenants cycling through the three arrival kinds. */
std::vector<ArrivalSpec>
mixedSpecs()
{
    std::vector<ArrivalSpec> specs(6);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].kind = static_cast<ArrivalKind>(i % 3);
        specs[i].rps = 20.0 + 15.0 * static_cast<double>(i);
        specs[i].periodSec = 3.0;
    }
    return specs;
}

FloodSource
flood(double prob, std::uint64_t burst, double after, double until,
      std::uint64_t maxCount, int tenant)
{
    FloodSource s;
    s.prob = prob;
    s.burst = burst;
    s.afterSec = after;
    s.untilSec = until;
    s.maxCount = maxCount;
    s.tenant = tenant;
    return s;
}

TEST(ArrivalPlan, FeedsEqualTheEagerFloodAugmentation)
{
    // Windows, several sources on one tenant, a per-tenant cap, and
    // shared caps that run out early, late, or never. The expected
    // seed-3 sizes were recorded from the eager augmentation running
    // on the eager generator, before the feeds replaced both.
    struct Case
    {
        const char *name;
        std::vector<FloodSource> sources;
        std::vector<std::size_t> sizes;
    };
    const std::vector<Case> cases = {
        {"no floods", {}, {110, 192, 93, 330, 394, 175}},
        {"window + tenant cap + shared cap",
         {flood(0.3, 2, 1.0, 3.0, 0, -1), flood(0.5, 3, 0.0, 0.0, 4, 2),
          flood(0.2, 1, 0.5, 0.0, 7, -1)},
         {159, 220, 105, 406, 486, 181}},
        {"shared cap spent by the first tenant",
         {flood(0.4, 5, 0.0, 0.0, 3, -1)}, {125, 192, 93, 330, 394, 175}},
        {"shared cap never reached",
         {flood(0.05, 1, 2.0, 4.5, 100000, -1),
          flood(0.25, 2, 0.0, 2.0, 0, 4)},
         {113, 200, 97, 344, 486, 178}},
    };
    const std::vector<ArrivalSpec> specs = mixedSpecs();
    for (const Case &c : cases) {
        for (std::uint64_t seed : {3ull, 11ull}) {
            const auto want = eagerStreams(specs, seed, 5.0, c.sources);
            const ArrivalPlan plan(specs, seed, 5.0, c.sources);
            EXPECT_EQ(drain(plan, specs.size()), want)
                << c.name << " seed " << seed;
            if (seed != 3)
                continue;
            for (std::size_t i = 0; i < specs.size(); ++i)
                EXPECT_EQ(want[i].size(), c.sizes[i])
                    << c.name << " tenant " << i;
        }
    }
}

TEST(TenantHeap, OrdersByTimeThenTenantThenSeq)
{
    // The per-core arrival heap holds one entry per tenant, its next
    // arrival: popping and re-keying merges the streams in (time,
    // tenant, seq) order, the tie-break that makes the merge a pure
    // function of its inputs.
    const std::vector<std::vector<double>> streams = {
        {0.5, 1.0, 2.0},
        {0.25, 1.0},
        {1.0},
        {1.0, 1.0},
    };
    TenantHeap heap;
    std::vector<std::size_t> cursor(streams.size(), 0);
    for (std::uint32_t t = 0; t < streams.size(); ++t)
        heap.push(streams[t][0], t);
    struct Event
    {
        double time;
        std::uint32_t tenant;
        std::size_t seq;
    };
    std::vector<Event> feed;
    while (!heap.empty()) {
        const TenantHeap::Entry top = heap.top();
        const std::size_t seq = cursor[top.tenant]++;
        feed.push_back(Event{top.key, top.tenant, seq});
        if (cursor[top.tenant] < streams[top.tenant].size())
            heap.replaceTop(streams[top.tenant][cursor[top.tenant]]);
        else
            heap.pop();
    }
    const std::vector<Event> want = {
        {0.25, 1, 0}, {0.5, 0, 0}, {1.0, 0, 1}, {1.0, 1, 1},
        {1.0, 2, 0},  {1.0, 3, 0}, {1.0, 3, 1}, {2.0, 0, 2},
    };
    ASSERT_EQ(feed.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(feed[i].time, want[i].time) << i;
        EXPECT_EQ(feed[i].tenant, want[i].tenant) << i;
        EXPECT_EQ(feed[i].seq, want[i].seq) << i;
    }
}

TEST(TenantHeap, MatchesLinearScanOnRandomPrograms)
{
    // Seeded programs of push / pop / replaceTop over 1-64 tenants,
    // at most one entry per tenant, with keys from a five-value set
    // so ties are common. After every step top() must be what a scan
    // over ascending tenants that keeps the first strict minimum
    // picks.
    const double keys[] = {0.0, 0.5, 1.0, 1.5, 2.0};
    std::size_t rekeyedUp = 0;
    std::size_t rekeyedDown = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const std::size_t tenants = 1 + rng.uniformInt(64);
        TenantHeap heap;
        // ref[t]: tenant t's key, or NaN when t is not in the heap.
        std::vector<double> ref(tenants,
                                std::numeric_limits<double>::quiet_NaN());
        auto scanTop = [&]() -> std::size_t {
            std::size_t best = tenants;
            for (std::size_t t = 0; t < tenants; ++t) {
                if (!std::isnan(ref[t]) &&
                    (best == tenants || ref[t] < ref[best]))
                    best = t;
            }
            return best;
        };
        for (int step = 0; step < 400; ++step) {
            const std::size_t top = scanTop();
            const double key = keys[rng.uniformInt(5)];
            const std::uint64_t op = rng.uniformInt(3);
            if (op == 0 || top == tenants) {
                std::vector<std::uint32_t> absent;
                for (std::uint32_t t = 0; t < tenants; ++t) {
                    if (std::isnan(ref[t]))
                        absent.push_back(t);
                }
                if (absent.empty())
                    continue;
                const std::uint32_t t =
                    absent[rng.uniformInt(absent.size())];
                heap.push(key, t);
                ref[t] = key;
            } else if (op == 1) {
                heap.pop();
                ref[top] = std::numeric_limits<double>::quiet_NaN();
            } else {
                rekeyedUp += key > ref[top];
                rekeyedDown += key < ref[top];
                heap.replaceTop(key);
                ref[top] = key;
            }
            const std::size_t want = scanTop();
            ASSERT_EQ(heap.empty(), want == tenants)
                << "seed " << seed << " step " << step;
            if (want == tenants)
                continue;
            ASSERT_EQ(heap.top().tenant, want)
                << "seed " << seed << " step " << step;
            ASSERT_EQ(heap.top().key, ref[want])
                << "seed " << seed << " step " << step;
        }
    }
    EXPECT_GT(rekeyedUp, 1000u);
    EXPECT_GT(rekeyedDown, 1000u);
}

TEST(ArrivalKind, NamesRoundTrip)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        const auto parsed =
            tryArrivalKindFromName(arrivalKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(tryArrivalKindFromName("weekly").has_value());
}

} // namespace
} // namespace v10
