/**
 * @file
 * Open-loop arrival processes for fleet-scale traffic serving
 * (ROADMAP "Fleet-scale online serving"): seeded, deterministic
 * per-tenant request streams merged into one event-ordered feed.
 *
 * Three generator families cover the canonical serving shapes:
 *  - Poisson: memoryless constant-rate arrivals (the M/M/1 anchor
 *    the analytic validation tests check against);
 *  - Diurnal: a sinusoid-modulated rate lambda(t) = r*(1 + a*sin)
 *    sampled exactly by Lewis-Shedler thinning;
 *  - Bursty: a two-state Markov-modulated (on/off) Poisson process
 *    whose index of dispersion exceeds 1.
 *
 * Determinism contract: a stream is a pure function of (spec, seed).
 * Per-tenant seeds are derived with Rng::deriveStream so tenant
 * streams are disjoint and independent of pool ordering. Streams are
 * produced lazily (ArrivalProcess::next, ArrivalFeed), so a serving
 * run holds one pending arrival per tenant, not the whole horizon.
 */

#ifndef V10_SERVE_ARRIVAL_H
#define V10_SERVE_ARRIVAL_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace v10 {

/** Arrival process families. */
enum class ArrivalKind {
    Poisson,
    Diurnal,
    Bursty,
};

/** Printable name of an arrival kind. */
const char *arrivalKindName(ArrivalKind kind);

/** Parse "poisson" / "diurnal" / "bursty" (case-sensitive). */
std::optional<ArrivalKind>
tryArrivalKindFromName(const std::string &name);

/**
 * One tenant's offered-load specification. Only the fields of the
 * selected kind are read; rps is always the *mean* offered rate, so
 * swapping kinds at a fixed rps keeps total offered load constant.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double rps = 0.0; ///< mean offered rate (requests/second)

    /** Diurnal: relative amplitude in [0, 1) and period of the
     * sinusoid; lambda(t) = rps * (1 + amplitude * sin(2*pi*t/T)). */
    double amplitude = 0.5;
    double periodSec = 60.0;

    /** Bursty (MMPP on/off): mean exponential dwell in the burst
     * (on) and idle (off) states. The on-state rate is scaled to
     * rps / duty so the long-run mean stays rps. */
    double meanOnSec = 0.5;
    double meanOffSec = 1.0;

    /** Structured validation (finite fields, rate >= 0, amplitude in
     * [0, 1), positive period/dwells). @p what labels diagnostics. */
    Status check(const std::string &what = "arrival") const;
};

/**
 * Deterministic generator for one tenant's stream. Construct with
 * the tenant's derived seed, then draw it one arrival at a time with
 * next() or whole with generate(); repeated construction yields the
 * identical stream.
 */
class ArrivalProcess
{
  public:
    /** @param spec validated arrival spec (check() must pass)
     *  @param seed per-stream seed (Rng::deriveStream of the run
     *         seed and the tenant index) */
    ArrivalProcess(ArrivalSpec spec, std::uint64_t seed);

    /** The spec driving this process. */
    const ArrivalSpec &spec() const { return spec_; }

    /**
     * All arrival times in [0, durationSec), ascending: next() up to
     * the horizon, so it consumes the process. A fresh
     * ArrivalProcess with the same (spec, seed) returns the same
     * vector for any duration prefix.
     */
    std::vector<double> generate(double durationSec);

    /**
     * The next arrival of the unbounded stream (+infinity at rate
     * 0). The values below any horizon d are exactly generate(d) of
     * a fresh process: the stream is a duration-prefix function.
     */
    double
    next()
    {
        if (spec_.kind != ArrivalKind::Poisson || spec_.rps == 0.0)
            return nextShaped();
        t_ += rng_.exponential(meanGap_);
        return t_;
    }

  private:
    /** next() for rate 0 and the Diurnal and Bursty kinds. */
    double nextShaped();

    ArrivalSpec spec_;
    Rng rng_;
    // Per-stream constants, fixed at construction.
    double lambdaMax_; ///< Diurnal: rps * (1 + amplitude)
    double meanGap_;   ///< Poisson: 1/rps; Diurnal: 1/lambda_max
    double duty_;      ///< Bursty: on / (on + off)
    double onGap_;     ///< Bursty: mean gap in the on state
    double t_ = 0.0;       ///< latest candidate or arrival time
    bool started_ = false; ///< Bursty: initial state drawn
    bool on_ = false;      ///< Bursty: in the burst state
    double stateEnd_ = 0.0; ///< Bursty: end of the current dwell
};

/**
 * One flood source (docs/RESILIENCE.md): while live, each base
 * arrival of a tenant it applies to draws once from the tenant's
 * flood stream and, on a hit, is followed by `burst` copies at the
 * same instant.
 */
struct FloodSource
{
    double prob = 0.0;          ///< hit probability per base arrival
    std::uint64_t burst = 0;    ///< copies appended per hit
    double afterSec = 0.0;      ///< live from this time on
    double untilSec = 0.0;      ///< live before this time; 0 = forever
    /** Bursts fired over every tenant the source applies to; 0 =
     * uncapped. A shared cap (tenant = -1) is spent in tenant-index
     * order, then time order. */
    std::uint64_t maxCount = 0;
    int tenant = -1;            ///< -1 = every tenant

    bool
    appliesTo(std::size_t t) const
    {
        return tenant < 0 || static_cast<std::size_t>(tenant) == t;
    }
};

/**
 * One tenant's arrival feed over [0, horizon): the base process with
 * the flood bursts spliced in, produced one arrival at a time.
 * Obtained from ArrivalPlan::feed().
 */
class ArrivalFeed
{
  public:
    /** Next arrival time (ascending); +infinity once the horizon is
     * reached. */
    double
    next()
    {
        if (pending_ > 0) {
            --pending_;
            return last_;
        }
        if (last_ >= horizon_)
            return std::numeric_limits<double>::infinity();
        last_ = base_.next();
        if (last_ >= horizon_)
            return std::numeric_limits<double>::infinity();
        if (!stages_.empty())
            drawFloods();
        return last_;
    }

  private:
    friend class ArrivalPlan;

    /** One flood source as this tenant sees it. */
    struct Stage
    {
        FloodSource source;
        std::size_t index = 0;   ///< position in the plan's sources
        std::uint64_t quota = 0; ///< bursts this tenant may fire
        std::uint64_t hits = 0;  ///< draws that hit, fired or not
    };

    ArrivalFeed(ArrivalProcess base, double horizonSec, Rng flood,
                std::vector<Stage> stages);

    /** The flood draws of the base arrival last_. */
    void drawFloods();

    ArrivalProcess base_;
    double horizon_;
    Rng flood_;
    std::vector<Stage> stages_;
    double last_ = 0.0;         ///< the latest base arrival
    std::uint64_t pending_ = 0; ///< burst copies still to emit
};

/**
 * The fleet's arrival feeds: tenant i's base process is seeded with
 * Rng::deriveStream(seed, i) and its flood draws with a disjoint
 * derived stream, so every feed is a pure function of (spec, seed,
 * tenant index, horizon, flood sources). No stream is materialized:
 * a shared flood cap is split into per-tenant quotas up front by
 * counting hits in tenant order (the flood draws happen whether or
 * not the cap allows the burst), stopping once every cap is spent.
 */
class ArrivalPlan
{
  public:
    ArrivalPlan(std::vector<ArrivalSpec> specs, std::uint64_t seed,
                double horizonSec, std::vector<FloodSource> floods);

    /** Tenant @p tenant's feed; its first next() is the tenant's
     * first arrival. */
    ArrivalFeed feed(std::size_t tenant) const;

  private:
    /** Feed whose stages carry their own caps (or none); shared
     * caps start at a zero quota. */
    ArrivalFeed makeFeed(std::size_t tenant) const;

    std::vector<ArrivalSpec> specs_;
    std::uint64_t seed_;
    double horizon_;
    std::vector<FloodSource> floods_;
    /** quota_[tenant * floods + k]: bursts tenant may fire from
     * shared-cap source k (other sources read their own cap). */
    std::vector<std::uint64_t> quota_;
};

} // namespace v10

#endif // V10_SERVE_ARRIVAL_H
