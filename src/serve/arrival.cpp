#include "serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/log.h"

namespace v10 {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Flood draws use derived streams above every tenant arrival
 * stream (below 2^32) and every core service stream (2^32 + core). */
constexpr std::uint64_t kFloodStreamSalt = 1ull << 33;

Status
requireFinitePositive(double v, const char *field,
                      const std::string &what)
{
    if (!std::isfinite(v) || v <= 0.0)
        return parseError(what + ": " + field + " must be positive",
                          "", 0, field);
    return Status::ok();
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Diurnal: return "diurnal";
      case ArrivalKind::Bursty:  return "bursty";
    }
    panic("arrivalKindName: bad kind");
}

std::optional<ArrivalKind>
tryArrivalKindFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    if (name == "bursty")
        return ArrivalKind::Bursty;
    return std::nullopt;
}

Status
ArrivalSpec::check(const std::string &what) const
{
    if (!std::isfinite(rps) || rps < 0.0)
        return parseError(what +
                              ": mean rate must be finite and "
                              "non-negative",
                          "", 0, "rps");
    switch (kind) {
      case ArrivalKind::Poisson:
        break;
      case ArrivalKind::Diurnal:
        if (!std::isfinite(amplitude) || amplitude < 0.0 ||
            amplitude >= 1.0)
            return parseError(what +
                                  ": diurnal amplitude must lie in "
                                  "[0, 1)",
                              "", 0, "amplitude");
        if (Status s = requireFinitePositive(periodSec, "periodSec",
                                             what);
            !s)
            return s;
        break;
      case ArrivalKind::Bursty:
        if (Status s = requireFinitePositive(meanOnSec, "meanOnSec",
                                             what);
            !s)
            return s;
        if (Status s = requireFinitePositive(meanOffSec,
                                             "meanOffSec", what);
            !s)
            return s;
        break;
    }
    return Status::ok();
}

ArrivalProcess::ArrivalProcess(ArrivalSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed),
      lambdaMax_(spec.rps * (1.0 + spec.amplitude)),
      meanGap_(spec.kind == ArrivalKind::Diurnal ? 1.0 / lambdaMax_
                                                 : 1.0 / spec.rps),
      duty_(spec.meanOnSec / (spec.meanOnSec + spec.meanOffSec)),
      onGap_(1.0 / (spec.rps / duty_))
{
    if (Status s = spec_.check(); !s)
        V10_PANIC("ArrivalProcess: ", s.error().toString());
}

std::vector<double>
ArrivalProcess::generate(double durationSec)
{
    if (!std::isfinite(durationSec) || durationSec < 0.0)
        panic("ArrivalProcess::generate: bad duration ",
              durationSec);
    std::vector<double> times;
    if (durationSec == 0.0 || spec_.rps == 0.0)
        return times;
    times.reserve(static_cast<std::size_t>(
        spec_.rps * durationSec * 1.1 + 16.0));
    for (double t = next(); t < durationSec; t = next())
        times.push_back(t);
    return times;
}

double
ArrivalProcess::nextShaped()
{
    if (spec_.rps == 0.0)
        return std::numeric_limits<double>::infinity();
    switch (spec_.kind) {
      case ArrivalKind::Poisson:
        break; // next() draws Poisson arrivals itself
      case ArrivalKind::Diurnal: {
        // Lewis-Shedler thinning against the envelope rate
        // lambda_max = rps * (1 + amplitude): candidate arrivals come
        // from a homogeneous Poisson process at lambda_max and
        // survive with probability lambda(t) / lambda_max.
        while (true) {
            t_ += rng_.exponential(meanGap_);
            const double lambda_t =
                spec_.rps *
                (1.0 + spec_.amplitude *
                           std::sin(kTwoPi * t_ / spec_.periodSec));
            if (rng_.bernoulli(lambda_t / lambdaMax_))
                return t_;
        }
      }
      case ArrivalKind::Bursty: {
        // Two-state MMPP: exponential dwells in on/off states; the
        // on-state rate is rps / duty so the long-run mean stays rps.
        if (!started_) {
            // Start in the stationary state distribution so the
            // stream has no startup transient.
            started_ = true;
            on_ = rng_.bernoulli(duty_);
            stateEnd_ = rng_.exponential(on_ ? spec_.meanOnSec
                                             : spec_.meanOffSec);
        }
        while (true) {
            if (!on_) {
                // Idle: jump to the end of the off dwell.
                t_ = stateEnd_;
                on_ = true;
                stateEnd_ = t_ + rng_.exponential(spec_.meanOnSec);
                continue;
            }
            const double next = t_ + rng_.exponential(onGap_);
            if (next >= stateEnd_) {
                // The burst ended before the next arrival fired.
                t_ = stateEnd_;
                on_ = false;
                stateEnd_ = t_ + rng_.exponential(spec_.meanOffSec);
                continue;
            }
            t_ = next;
            return t_;
        }
      }
    }
    panic("ArrivalProcess::nextShaped: bad kind");
}

ArrivalFeed::ArrivalFeed(ArrivalProcess base, double horizonSec,
                         Rng flood, std::vector<Stage> stages)
    : base_(std::move(base)), horizon_(horizonSec),
      flood_(std::move(flood)), stages_(std::move(stages))
{
}

void
ArrivalFeed::drawFloods()
{
    // One draw per live source per base arrival, hit or not and
    // capped or not, so the draw sequence is stable under rate and
    // cap changes.
    for (Stage &st : stages_) {
        const FloodSource &s = st.source;
        if (last_ < s.afterSec ||
            (s.untilSec > 0.0 && last_ >= s.untilSec))
            continue;
        if (!(flood_.uniform() < s.prob))
            continue;
        ++st.hits;
        if (st.quota == 0)
            continue;
        --st.quota;
        pending_ += s.burst;
    }
}

ArrivalPlan::ArrivalPlan(std::vector<ArrivalSpec> specs,
                         std::uint64_t seed, double horizonSec,
                         std::vector<FloodSource> floods)
    : specs_(std::move(specs)), seed_(seed), horizon_(horizonSec),
      floods_(std::move(floods))
{
    const std::size_t n = specs_.size();
    const std::size_t sources = floods_.size();
    std::vector<std::uint64_t> left(sources, 0);
    for (std::size_t k = 0; k < sources; ++k) {
        if (floods_[k].tenant < 0)
            left[k] = floods_[k].maxCount;
    }
    auto spent = [&] {
        return std::all_of(left.begin(), left.end(),
                           [](std::uint64_t v) { return v == 0; });
    };
    if (spent())
        return;
    // Shared caps: count each tenant's hits in tenant order and hand
    // out what is left, as the eager augmentation spent them.
    quota_.assign(n * sources, 0);
    for (std::size_t i = 0; i < n && !spent(); ++i) {
        ArrivalFeed probe = makeFeed(i);
        while (probe.next() < horizon_) {
        }
        for (const ArrivalFeed::Stage &st : probe.stages_) {
            const std::size_t k = st.index;
            const std::uint64_t take = std::min(st.hits, left[k]);
            quota_[i * sources + k] = take;
            left[k] -= take;
        }
    }
}

ArrivalFeed
ArrivalPlan::makeFeed(std::size_t tenant) const
{
    std::vector<ArrivalFeed::Stage> stages;
    for (std::size_t k = 0; k < floods_.size(); ++k) {
        const FloodSource &s = floods_[k];
        if (!s.appliesTo(tenant))
            continue;
        ArrivalFeed::Stage st;
        st.source = s;
        st.index = k;
        st.quota = s.maxCount == 0
                       ? std::numeric_limits<std::uint64_t>::max()
                       : (s.tenant < 0 ? 0 : s.maxCount);
        stages.push_back(st);
    }
    return ArrivalFeed(
        ArrivalProcess(specs_[tenant],
                       Rng::deriveStream(seed_, tenant)),
        horizon_,
        Rng(Rng::deriveStream(seed_, kFloodStreamSalt + tenant)),
        std::move(stages));
}

ArrivalFeed
ArrivalPlan::feed(std::size_t tenant) const
{
    if (tenant >= specs_.size())
        V10_PANIC("ArrivalPlan::feed: bad tenant ", tenant);
    ArrivalFeed f = makeFeed(tenant);
    if (!quota_.empty()) {
        for (ArrivalFeed::Stage &st : f.stages_) {
            if (st.source.tenant < 0 && st.source.maxCount > 0)
                st.quota = quota_[tenant * floods_.size() + st.index];
        }
    }
    return f;
}

} // namespace v10
