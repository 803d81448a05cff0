#include "serve/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace v10 {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

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
    : spec_(spec), rng_(seed)
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
    if (durationSec == 0.0 || spec_.rps == 0.0)
        return {};
    switch (spec_.kind) {
      case ArrivalKind::Poisson: return generatePoisson(durationSec);
      case ArrivalKind::Diurnal: return generateDiurnal(durationSec);
      case ArrivalKind::Bursty:  return generateBursty(durationSec);
    }
    panic("ArrivalProcess::generate: bad kind");
}

std::vector<double>
ArrivalProcess::generatePoisson(double durationSec)
{
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(
        spec_.rps * durationSec * 1.1 + 16.0));
    const double mean_gap = 1.0 / spec_.rps;
    double t = rng_.exponential(mean_gap);
    while (t < durationSec) {
        times.push_back(t);
        t += rng_.exponential(mean_gap);
    }
    return times;
}

std::vector<double>
ArrivalProcess::generateDiurnal(double durationSec)
{
    // Lewis-Shedler thinning against the envelope rate
    // lambda_max = rps * (1 + amplitude): candidate arrivals come
    // from a homogeneous Poisson process at lambda_max and survive
    // with probability lambda(t) / lambda_max.
    std::vector<double> times;
    const double lambda_max = spec_.rps * (1.0 + spec_.amplitude);
    times.reserve(static_cast<std::size_t>(
        spec_.rps * durationSec * 1.1 + 16.0));
    const double mean_gap = 1.0 / lambda_max;
    double t = rng_.exponential(mean_gap);
    while (t < durationSec) {
        const double lambda_t =
            spec_.rps *
            (1.0 + spec_.amplitude *
                       std::sin(kTwoPi * t / spec_.periodSec));
        if (rng_.bernoulli(lambda_t / lambda_max))
            times.push_back(t);
        t += rng_.exponential(mean_gap);
    }
    return times;
}

std::vector<double>
ArrivalProcess::generateBursty(double durationSec)
{
    // Two-state MMPP: exponential dwells in on/off states; the
    // on-state rate is rps / duty so the long-run mean stays rps.
    const double duty =
        spec_.meanOnSec / (spec_.meanOnSec + spec_.meanOffSec);
    const double on_rate = spec_.rps / duty;
    const double on_gap = 1.0 / on_rate;

    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(
        spec_.rps * durationSec * 1.1 + 16.0));
    // Start in the stationary state distribution so the stream has
    // no startup transient.
    bool on = rng_.bernoulli(duty);
    double t = 0.0;
    double state_end =
        rng_.exponential(on ? spec_.meanOnSec : spec_.meanOffSec);
    while (t < durationSec) {
        if (!on) {
            // Idle: jump to the end of the off dwell.
            t = state_end;
            on = true;
            state_end = t + rng_.exponential(spec_.meanOnSec);
            continue;
        }
        const double next = t + rng_.exponential(on_gap);
        if (next >= state_end) {
            // The burst ended before the next arrival fired.
            t = state_end;
            on = false;
            state_end = t + rng_.exponential(spec_.meanOffSec);
            continue;
        }
        t = next;
        if (t < durationSec)
            times.push_back(t);
    }
    return times;
}

std::vector<ArrivalEvent>
mergeArrivalStreams(const std::vector<std::vector<double>> &streams)
{
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    std::vector<ArrivalEvent> feed;
    feed.reserve(total);
    for (std::size_t tenant = 0; tenant < streams.size(); ++tenant) {
        const auto &stream = streams[tenant];
        for (std::size_t seq = 0; seq < stream.size(); ++seq)
            feed.push_back(ArrivalEvent{
                stream[seq], static_cast<std::uint32_t>(tenant),
                static_cast<std::uint64_t>(seq)});
    }
    std::sort(feed.begin(), feed.end(),
              [](const ArrivalEvent &a, const ArrivalEvent &b) {
                  if (a.timeSec != b.timeSec)
                      return a.timeSec < b.timeSec;
                  if (a.tenant != b.tenant)
                      return a.tenant < b.tenant;
                  return a.seq < b.seq;
              });
    return feed;
}

} // namespace v10
