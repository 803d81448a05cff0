#include "serve/cluster_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/annotations.h"
#include "common/log.h"
#include "common/parallel_executor.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "metrics/interval_sampler.h"
#include "metrics/stat_registry.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "workload/model_zoo.h"

namespace v10 {

namespace {

/** Stream-id space separation: tenants draw arrival streams below
 * the core salt, cores draw service streams above it, and the
 * flood-burst thinning draws live above both. */
constexpr std::uint64_t kCoreStreamSalt = 1ull << 32;
constexpr std::uint64_t kFloodStreamSalt = 1ull << 33;

/** One completion, buffered per control epoch inside the owning
 * core and folded into the per-tenant accumulators serially (in
 * core-index order) by the manager — so a tenant served by two
 * cores in one epoch (migration) still folds in one deterministic
 * floating-point order for any --jobs value. */
struct CompletionRec
{
    std::uint32_t tenant = 0; ///< global tenant index
    bool violated = false;
    double latencyUs = 0.0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double soloUs = 0.0;
    double endSec = 0.0; ///< completion time (SLO bucket key)
};

/** One queue-wait / thrash-overhead attribution charge. */
struct WaitCharge
{
    std::uint32_t victim = 0;
    std::uint32_t perp = 0;
    double us = 0.0;
};

/** Static per-tenant antagonist context, shared by every core. */
struct TenantStatic
{
    std::vector<AntagonistProfile> hogs;   ///< HbmHog windows
    std::vector<AntagonistProfile> thrash; ///< Thrash windows
};

/** One waiting request: (arrival time, seq) FIFO entry. */
struct Waiting
{
    double timeSec = 0.0;
    std::uint64_t seq = 0;
};

/**
 * One tenant's live state on its current host core. The flow moves
 * wholesale between cores on migrate/isolate (queue handed over,
 * SCFQ virtual time reset); the in-flight request, if any, finishes
 * on the old core from captured parameters.
 */
struct V10_DOMAIN_LOCAL TenantFlow
{
    std::uint32_t tenant = 0; ///< global index (trace IDs)
    const std::vector<double> *arrivals = nullptr;
    std::size_t cursor = 0; ///< next un-consumed arrival
    bool active = true;     ///< consuming arrivals (churn/evict)
    double serviceMeanSec = 0.0; ///< after the collocation speedup
    double soloMeanSec = 0.0;    ///< solo-run calibration
    double weight = 1.0;
    double sloTargetUs = 0.0;
    /** Admission gate bucket; nullptr = admit everything. */
    TokenBucket *bucket = nullptr;
    const TenantStatic *stat = nullptr;
    std::vector<Waiting> queue;
    std::size_t head = 0;
    double vtime = 0.0; ///< SCFQ virtual finish time

    std::size_t queued() const { return queue.size() - head; }
};

/**
 * One core's persistent serving state: a single server draining
 * bounded per-tenant FIFO queues under self-clocked weighted fair
 * queueing, advanced one control epoch at a time. With a single
 * epoch (no resilience feature active) runEpoch() performs exactly
 * the classic single-pass simulation — same event order, same RNG
 * draw sites, same floating-point accumulation — so legacy runs
 * stay byte-identical. Trace/observability inputs only *record*;
 * service draws and scheduling never depend on them.
 */
class V10_DOMAIN_LOCAL CoreSim
{
  public:
    // --- immutable run context -------------------------------------
    std::size_t index = 0;
    Rng rng{0};
    std::uint64_t traceSeed = 0;
    std::uint64_t spanSampleN = 0;
    TraceSampler spanSampler{1};
    ServiceDist dist = ServiceDist::Exponential;
    double cv = 1.0;
    std::size_t queueCapacity = 64;
    double durationSec = 1.0;
    std::size_t sampleTicks = 0;
    double tickSec = 0.0;
    bool needCharges = false;

    /** Resident flows, keyed by global tenant index; ascending map
     * order is the deterministic tie-break everywhere. */
    std::map<std::size_t, TenantFlow> flows;

    // --- server state ---------------------------------------------
    double vclock = 0.0;
    bool busy = false;
    double busyUntil = 0.0;
    double servedStart = 0.0;
    double servedArrival = 0.0;
    std::uint64_t servedSeq = 0;
    std::uint32_t servedTenant = 0;
    /** Captured at service start so finish() never dereferences a
     * flow that migrated away mid-service. */
    double servedSloTargetUs = 0.0;
    double servedSpeed = 1.0;
    std::size_t waiting = 0; ///< total queued across tenants

    // --- whole-run accounting -------------------------------------
    double lastT = 0.0;
    std::size_t nextTick = 1;
    double depthArea = 0.0;
    double busyArea = 0.0;
    double depthPeak = 0.0;
    double busySec = 0.0;
    double endSec = 0.0; ///< last completion (>= duration horizon)
    std::uint64_t served = 0;
    std::vector<double> depthSamples;
    std::vector<double> inflightSamples;
    std::vector<RequestSpan> spans;

    // --- per-epoch buffers (folded serially by the manager) -------
    std::vector<CompletionRec> completions;
    std::vector<WaitCharge> charges;
    std::map<std::size_t, std::uint64_t> offered;
    std::map<std::size_t, std::uint64_t> shed;
    std::map<std::size_t, std::uint64_t> rejected;

    void
    beginEpoch()
    {
        completions.clear();
        charges.clear();
        offered.clear();
        shed.clear();
        rejected.clear();
    }

    /** Time-weighted occupancy accounting plus the optional fixed
     * sim-time tick series; called with the state still describing
     * (lastT, now]. */
    void
    advanceTime(double now)
    {
        if (now < lastT)
            return;
        while (sampleTicks > 0 && nextTick <= sampleTicks &&
               static_cast<double>(nextTick) * tickSec <= now) {
            depthSamples.push_back(static_cast<double>(waiting));
            inflightSamples.push_back(busy ? 1.0 : 0.0);
            ++nextTick;
        }
        depthArea += static_cast<double>(waiting) * (now - lastT);
        busyArea += (busy ? 1.0 : 0.0) * (now - lastT);
        lastT = now;
    }

    /** One service draw at the tenant's mean, inflated by any live
     * HBM-hog windows. Exactly one RNG draw regardless of the
     * inflation factor, so draw sequences stay aligned. */
    double
    drawService(const TenantFlow &f, double now)
    {
        double mean = f.serviceMeanSec;
        if (f.stat != nullptr) {
            for (const AntagonistProfile &p : f.stat->hogs) {
                if (p.activeAt(now))
                    mean *= p.effectiveMagnitude();
            }
        }
        switch (dist) {
          case ServiceDist::Deterministic: return mean;
          case ServiceDist::Exponential:
            return rng.exponential(mean);
          case ServiceDist::Lognormal:
            return rng.lognormal(mean, cv);
        }
        panic("CoreSim: bad service distribution");
    }

    /** Pick the nonempty queue with the least virtual time (ties to
     * the lowest tenant index) and put it in service. */
    void
    startNext(double now)
    {
        auto pick = flows.end();
        for (auto it = flows.begin(); it != flows.end(); ++it) {
            if (it->second.queued() == 0)
                continue;
            if (pick == flows.end() ||
                it->second.vtime < pick->second.vtime)
                pick = it;
        }
        if (pick == flows.end())
            return;
        TenantFlow &f = pick->second;
        servedTenant = f.tenant;
        const Waiting &w = f.queue[f.head++];
        servedArrival = w.timeSec;
        servedSeq = w.seq;
        --waiting;
        double service = drawService(f, now);
        // Preemption thrashing: a queued co-resident with a live
        // thrash window inflicts per-start overhead, charged to the
        // thrasher in the attribution matrix.
        for (auto &[ti, g] : flows) {
            if (ti == pick->first || g.stat == nullptr ||
                g.stat->thrash.empty() || g.queued() == 0)
                continue;
            double frac = 0.0;
            for (const AntagonistProfile &p : g.stat->thrash) {
                if (p.activeAt(now))
                    frac += p.effectiveMagnitude();
            }
            if (frac <= 0.0)
                continue;
            const double overhead = frac * f.serviceMeanSec;
            service += overhead;
            if (needCharges)
                charges.push_back(
                    WaitCharge{f.tenant, g.tenant, overhead * 1e6});
        }
        vclock = std::max(vclock, f.vtime);
        f.vtime = vclock + service / f.weight;
        busy = true;
        servedStart = now;
        busyUntil = now + service;
        busySec += service;
        servedSloTargetUs = f.sloTargetUs;
        servedSpeed = f.serviceMeanSec > 0.0
                          ? f.soloMeanSec / f.serviceMeanSec
                          : 1.0;
    }

    /** Restart an idle server after a queue handoff (migration). */
    void
    kickIdle(double now)
    {
        if (!busy)
            startNext(now);
    }

    void
    finish()
    {
        const double latencyUs = (busyUntil - servedArrival) * 1e6;
        const double queueUs = (servedStart - servedArrival) * 1e6;
        const double serviceUs = (busyUntil - servedStart) * 1e6;
        // Solo-equivalent of this draw: the same work at the
        // tenant's calibrated solo rate.
        const double soloUs = serviceUs * servedSpeed;
        ++served;
        const double target = servedSloTargetUs;
        const bool violated = target > 0.0 && latencyUs > target;
        completions.push_back(CompletionRec{
            servedTenant, violated, latencyUs, queueUs, serviceUs,
            soloUs, busyUntil});
        if (needCharges) {
            // Head-of-line blocking: each co-resident flow whose
            // head request waited out this service accrues the
            // service time, charged to the tenant that held the
            // server. Charging per flow (not per queued request)
            // keeps the perpetrator score proportional to the
            // blocker's server occupancy — a flooder's deep
            // self-inflicted queue must not inflate its victims'
            // columns.
            for (auto &[ti, g] : flows) {
                if (g.tenant == servedTenant || g.queued() == 0)
                    continue;
                charges.push_back(
                    WaitCharge{g.tenant, servedTenant, serviceUs});
            }
        }
        if (spanSampleN > 0) {
            const TraceContext ctx = TraceContext::make(
                traceSeed, servedTenant, servedSeq);
            if (spanSampler.sampled(ctx.traceId)) {
                RequestSpan span;
                span.ctx = ctx;
                span.core = index;
                span.arrivalUs = servedArrival * 1e6;
                span.startUs = servedStart * 1e6;
                span.endUs = busyUntil * 1e6;
                span.soloUs = soloUs;
                span.sloTargetUs = target;
                span.violated = violated;
                spans.push_back(std::move(span));
            }
        }
        endSec = std::max(endSec, busyUntil);
        busy = false;
    }

    /** Record a span for an arrival that never entered the queue
     * (admission rejection or queue-full shed). */
    void
    dropSpan(const TenantFlow &f, double atSec, std::uint64_t seq,
             bool wasRejected)
    {
        if (spanSampleN == 0)
            return;
        const TraceContext ctx =
            TraceContext::make(traceSeed, f.tenant, seq);
        if (!spanSampler.sampled(ctx.traceId))
            return;
        RequestSpan span;
        span.ctx = ctx;
        span.core = index;
        span.arrivalUs = atSec * 1e6;
        span.startUs = span.arrivalUs;
        span.endUs = span.arrivalUs;
        span.sloTargetUs = f.sloTargetUs;
        span.shed = !wasRejected;
        span.rejected = wasRejected;
        spans.push_back(std::move(span));
    }

    /**
     * Advance to @p epochEnd. Non-final epochs process arrivals
     * strictly before the boundary and defer completions landing on
     * or past it; the final epoch consumes every remaining arrival
     * and drains all queues (completions past the horizon allowed).
     */
    void
    runEpoch(double epochEnd, bool isFinal)
    {
        const double bound =
            isFinal ? std::numeric_limits<double>::infinity()
                    : epochEnd;
        while (true) {
            // Next arrival among active flows (ascending map order
            // breaks exact-time ties toward the lowest index).
            auto at = flows.end();
            double atTime = 0.0;
            for (auto it = flows.begin(); it != flows.end(); ++it) {
                TenantFlow &f = it->second;
                if (!f.active || f.cursor >= f.arrivals->size())
                    continue;
                const double tm = (*f.arrivals)[f.cursor];
                if (tm >= bound)
                    continue;
                if (at == flows.end() || tm < atTime) {
                    at = it;
                    atTime = tm;
                }
            }
            const bool haveArrival = at != flows.end();
            // Completions fire before arrivals carrying the same
            // timestamp: the server frees the slot first.
            if (busy && (!haveArrival || busyUntil <= atTime)) {
                if (!isFinal && busyUntil >= epochEnd)
                    break; // lands on/after the boundary: defer
                const double now = busyUntil;
                advanceTime(now);
                finish();
                startNext(now);
                continue;
            }
            if (!haveArrival)
                break;
            TenantFlow &f = at->second;
            const auto seq = static_cast<std::uint64_t>(f.cursor);
            ++f.cursor;
            ++offered[at->first];
            advanceTime(atTime);
            if (f.bucket != nullptr && !f.bucket->tryAdmit(atTime)) {
                ++rejected[at->first];
                dropSpan(f, atTime, seq, /*wasRejected=*/true);
            } else if (f.queued() >= queueCapacity) {
                ++shed[at->first]; // bounded queue: load-shed
                dropSpan(f, atTime, seq, /*wasRejected=*/false);
            } else {
                f.queue.push_back(Waiting{atTime, seq});
                ++waiting;
                depthPeak = std::max(depthPeak,
                                     static_cast<double>(waiting));
                if (!busy)
                    startNext(atTime);
            }
        }
        if (!isFinal) {
            // Close the occupancy integrals at the boundary: the
            // control step may hand queues between cores.
            advanceTime(epochEnd);
            return;
        }
        // Close the integrals at the drain point and emit any
        // remaining (idle) ticks.
        advanceTime(std::max(endSec, durationSec));
        while (sampleTicks > 0 && nextTick <= sampleTicks) {
            depthSamples.push_back(0.0);
            inflightSamples.push_back(0.0);
            ++nextTick;
        }
    }
};

} // namespace

Result<std::vector<SloTier>>
parseSloSpec(const std::string &spec)
{
    std::vector<SloTier> tiers;
    for (const std::string &part : split(spec, ',')) {
        if (part.empty())
            return parseError("slo: empty tier", "", 0, spec);
        const auto colon = part.find(':');
        std::string target = part.substr(0, colon);
        SloTier tier;
        if (colon != std::string::npos) {
            const std::string weight = part.substr(colon + 1);
            const auto w = parseDouble(weight);
            if (!w || !std::isfinite(*w) || *w <= 0.0)
                return parseError("slo: weight must be a positive "
                                  "number",
                                  "", 0, weight);
            tier.weight = *w;
        }
        if (!target.empty() && target.back() == 'x') {
            tier.relative = true;
            target.pop_back();
        } else {
            tier.relative = false;
        }
        const auto v = parseDouble(target);
        if (!v || !std::isfinite(*v) || *v <= 0.0)
            return parseError("slo: target must be a positive "
                              "number or <mult>x",
                              "", 0, part);
        tier.value = *v;
        tiers.push_back(tier);
    }
    if (tiers.empty())
        return parseError("slo: expected target[:weight][,...]", "",
                          0, spec);
    return tiers;
}

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RoundRobin:  return "round-robin";
      case PlacementPolicy::LeastLoaded: return "least-loaded";
      case PlacementPolicy::Advisor:     return "advisor";
    }
    panic("placementPolicyName: bad policy");
}

std::optional<PlacementPolicy>
tryPlacementPolicyFromName(const std::string &name)
{
    if (name == "round-robin")
        return PlacementPolicy::RoundRobin;
    if (name == "least-loaded")
        return PlacementPolicy::LeastLoaded;
    if (name == "advisor")
        return PlacementPolicy::Advisor;
    return std::nullopt;
}

const char *
serviceDistName(ServiceDist dist)
{
    switch (dist) {
      case ServiceDist::Deterministic: return "det";
      case ServiceDist::Exponential:   return "exp";
      case ServiceDist::Lognormal:     return "lognormal";
    }
    panic("serviceDistName: bad dist");
}

std::optional<ServiceDist>
tryServiceDistFromName(const std::string &name)
{
    if (name == "det")
        return ServiceDist::Deterministic;
    if (name == "exp")
        return ServiceDist::Exponential;
    if (name == "lognormal")
        return ServiceDist::Lognormal;
    return std::nullopt;
}

ClusterManager::ClusterManager(ServeConfig config)
    : config_(config), runner_(config.core)
{
}

Status
ClusterManager::checkConfig() const
{
    if (config_.numCores == 0)
        return parseError("serve: fleet needs at least one core",
                          "", 0, "numCores");
    if (!std::isfinite(config_.durationSec) ||
        config_.durationSec <= 0.0)
        return parseError("serve: duration must be positive", "", 0,
                          "durationSec");
    if (config_.queueCapacity == 0)
        return parseError("serve: per-tenant queue capacity must "
                          "be >= 1",
                          "", 0, "queueCapacity");
    if (config_.serviceDist == ServiceDist::Lognormal &&
        (!std::isfinite(config_.serviceCv) ||
         config_.serviceCv <= 0.0))
        return parseError("serve: lognormal service cv must be "
                          "positive",
                          "", 0, "serviceCv");
    return Status::ok();
}

Status
ClusterManager::addTenant(ServeTenant tenant)
{
    if (tenant.name.empty())
        return parseError("serve: tenant name must be non-empty",
                          "", 0, "name");
    for (const ServeTenant &existing : tenants_) {
        if (existing.name == tenant.name)
            return parseError("serve: duplicate tenant name", "", 0,
                              tenant.name);
    }
    if (tryFindModel(tenant.model) == nullptr)
        return parseError("serve: unknown model", "", 0,
                          tenant.model);
    if (Status s = tenant.arrival.check("serve: tenant '" +
                                        tenant.name + "' arrival");
        !s)
        return s;
    if (!std::isfinite(tenant.slo.latencyTargetUs) ||
        tenant.slo.latencyTargetUs < 0.0)
        return parseError("serve: SLO latency target must be "
                          "finite and non-negative",
                          "", 0, tenant.name);
    if (!std::isfinite(tenant.slo.weight) ||
        tenant.slo.weight <= 0.0)
        return parseError("serve: SLO weight must be positive", "",
                          0, tenant.name);
    if (!std::isfinite(tenant.serviceUsOverride) ||
        tenant.serviceUsOverride < 0.0)
        return parseError("serve: service override must be finite "
                          "and non-negative",
                          "", 0, tenant.name);
    tenants_.push_back(std::move(tenant));
    service_us_cache_.push_back(0.0);
    return Status::ok();
}

double
ClusterManager::serviceUs(std::size_t index)
{
    if (index >= tenants_.size())
        panic("ClusterManager::serviceUs: bad tenant index ", index);
    if (service_us_cache_[index] > 0.0)
        return service_us_cache_[index];
    const ServeTenant &t = tenants_[index];
    double us = t.serviceUsOverride;
    if (us <= 0.0) {
        const double rate =
            runner_.singleTenantRps(t.model, t.batch);
        if (rate <= 0.0)
            panic("ClusterManager::serviceUs: non-positive "
                  "calibrated rate for ",
                  t.model);
        us = 1e6 / rate;
    }
    service_us_cache_[index] = us;
    return us;
}

Result<ServePlacement>
ClusterManager::placeAdvisor()
{
    // Train the §3.4 advisor on the distinct pooled models, then
    // greedily pair tenants whose models clear the predicted-gain
    // threshold; pairs serve faster by the predicted gain.
    if (advisor_fleet_ == nullptr) {
        ClusterConfig fleet;
        fleet.core = config_.core;
        fleet.numCores = config_.numCores;
        fleet.collocationThreshold = config_.collocationThreshold;
        fleet.jobs = config_.jobs;
        auto cluster = std::make_unique<NpuCluster>(fleet);
        std::vector<std::string> distinct;
        for (const ServeTenant &t : tenants_) {
            if (std::find(distinct.begin(), distinct.end(),
                          t.model) == distinct.end())
                distinct.push_back(t.model);
        }
        for (const std::string &model : distinct) {
            if (Status s = cluster->addWorkload(model); !s)
                return s.error();
        }
        if (Status s =
                cluster->trainAdvisor(config_.advisorProfileRequests);
            !s)
            return s.error();
        advisor_fleet_ = std::move(cluster);
    }

    // Pairwise predicted gain, cached per model pair.
    std::map<std::pair<std::string, std::string>, double> gains;
    auto gain_of = [&](const std::string &a, const std::string &b) {
        auto key = a <= b ? std::make_pair(a, b)
                          : std::make_pair(b, a);
        auto it = gains.find(key);
        if (it == gains.end())
            it = gains
                     .emplace(key, advisor_fleet_
                                       ->predictedGain(key.first,
                                                       key.second)
                                       .value())
                     .first;
        return it->second;
    };

    struct Candidate
    {
        std::size_t a, b;
        double gain;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        for (std::size_t j = i + 1; j < tenants_.size(); ++j) {
            const double g =
                gain_of(tenants_[i].model, tenants_[j].model);
            if (g >= config_.collocationThreshold)
                candidates.push_back(Candidate{i, j, g});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &x, const Candidate &y) {
                  if (x.gain != y.gain)
                      return x.gain > y.gain;
                  if (x.a != y.a)
                      return x.a < y.a;
                  return x.b < y.b;
              });

    ServePlacement placement;
    placement.tenantSpeed.assign(tenants_.size(), 1.0);
    std::vector<bool> paired(tenants_.size(), false);
    std::vector<std::vector<std::size_t>> groups;
    for (const Candidate &c : candidates) {
        if (paired[c.a] || paired[c.b])
            continue;
        paired[c.a] = paired[c.b] = true;
        groups.push_back({c.a, c.b});
        // The predicted STP gain becomes the pair's service speed
        // factor (capped at the two-tenant concurrency limit).
        const double speed = std::min(std::max(c.gain, 1.0), 2.0);
        placement.tenantSpeed[c.a] = speed;
        placement.tenantSpeed[c.b] = speed;
    }
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!paired[i])
            groups.push_back({i});
    }

    // Spill groups to the least-loaded core (offered erlangs,
    // adjusted for the pair speedup).
    placement.coreTenants.assign(config_.numCores, {});
    placement.tenantCore.assign(tenants_.size(), 0);
    std::vector<double> load(config_.numCores, 0.0);
    for (const auto &group : groups) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < config_.numCores; ++c) {
            if (load[c] < load[best])
                best = c;
        }
        for (std::size_t idx : group) {
            placement.coreTenants[best].push_back(idx);
            placement.tenantCore[idx] = best;
            load[best] += tenants_[idx].arrival.rps *
                          (serviceUs(idx) * 1e-6) /
                          placement.tenantSpeed[idx];
        }
    }
    return placement;
}

Result<ServePlacement>
ClusterManager::place()
{
    if (Status s = checkConfig(); !s)
        return s.error();
    if (tenants_.empty())
        return parseError("serve: no tenants admitted", "", 0,
                          "tenants");

    if (config_.policy == PlacementPolicy::Advisor)
        return placeAdvisor();

    ServePlacement placement;
    placement.coreTenants.assign(config_.numCores, {});
    placement.tenantSpeed.assign(tenants_.size(), 1.0);
    placement.tenantCore.assign(tenants_.size(), 0);

    if (config_.policy == PlacementPolicy::RoundRobin) {
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const std::size_t core = i % config_.numCores;
            placement.coreTenants[core].push_back(i);
            placement.tenantCore[i] = core;
        }
        return placement;
    }

    // LeastLoaded: heaviest tenants first onto the emptiest core.
    std::vector<std::size_t> order(tenants_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<double> erlangs(tenants_.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        erlangs[i] =
            tenants_[i].arrival.rps * (serviceUs(i) * 1e-6);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (erlangs[a] != erlangs[b])
                      return erlangs[a] > erlangs[b];
                  return a < b;
              });
    std::vector<double> load(config_.numCores, 0.0);
    for (std::size_t idx : order) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < config_.numCores; ++c) {
            if (load[c] < load[best])
                best = c;
        }
        placement.coreTenants[best].push_back(idx);
        placement.tenantCore[idx] = best;
        load[best] += erlangs[idx];
    }
    // Keep each core's resident list in tenant order so the core
    // simulation is independent of the placement visit order.
    for (auto &residents : placement.coreTenants)
        std::sort(residents.begin(), residents.end());
    return placement;
}

std::size_t
ClusterManager::repairCore(
    std::size_t tenant, std::size_t current,
    const std::vector<std::vector<std::size_t>> &residents)
{
    // Re-pair a recovering tenant: prefer the advisor's best
    // predicted gain against a candidate core's residents (when the
    // advisor was trained), break ties toward the emptiest core,
    // then the lowest index. Never the isolation core it leaves.
    std::size_t best = current;
    double bestGain = -1.0;
    std::size_t bestCount = 0;
    for (std::size_t c = 0; c < residents.size(); ++c) {
        if (c == current)
            continue;
        double gain = 0.0;
        if (advisor_fleet_ != nullptr) {
            for (std::size_t other : residents[c]) {
                if (other == tenant)
                    continue;
                gain = std::max(
                    gain, advisor_fleet_
                              ->predictedGain(tenants_[tenant].model,
                                              tenants_[other].model)
                              .value());
            }
        }
        const std::size_t count = residents[c].size();
        if (best == current || gain > bestGain ||
            (gain == bestGain && count < bestCount)) {
            best = c;
            bestGain = gain;
            bestCount = count;
        }
    }
    return best;
}

Result<ServingReport>
ClusterManager::run()
{
    auto placement_or = place();
    if (!placement_or.ok())
        return placement_or.error();
    const ServePlacement placement = placement_or.take();
    const std::size_t n = tenants_.size();

    // Validate the resilience surface up front (defaults all pass).
    if (Status s = config_.admission.check(); !s)
        return s.error();
    if (Status s = config_.detector.check(); !s)
        return s.error();
    if (Status s = config_.ladder.check(); !s)
        return s.error();
    if (Status s = config_.churn.check(config_.durationSec); !s)
        return s.error();
    if (Status s = config_.antagonists.check(n,
                                             config_.durationSec);
        !s)
        return s.error();

    // Resolve churn tenant names and walk the plan's state machine:
    // a tenant whose first event is a join starts dormant; joins
    // require a dormant tenant, leaves/migrates an active one.
    struct PlannedChurn
    {
        ChurnEvent event;
        std::size_t tenant = 0;
        std::size_t epoch = 0; ///< boundary index on the epoch grid
    };
    std::vector<PlannedChurn> churn;
    std::vector<bool> startsInactive(n, false);
    {
        std::vector<bool> active(n, true);
        std::vector<bool> seen(n, false);
        for (const ChurnEvent &ev : config_.churn.events()) {
            std::size_t idx = n;
            for (std::size_t i = 0; i < n; ++i) {
                if (tenants_[i].name == ev.tenant) {
                    idx = i;
                    break;
                }
            }
            if (idx == n)
                return parseError("churn: unknown tenant", "", 0,
                                  ev.tenant);
            if (!seen[idx]) {
                seen[idx] = true;
                if (ev.action == ChurnAction::Join) {
                    startsInactive[idx] = true;
                    active[idx] = false;
                }
            }
            if (ev.action == ChurnAction::Join) {
                if (active[idx])
                    return parseError(
                        "churn: tenant already joined", "", 0,
                        ev.spec());
                active[idx] = true;
            } else {
                if (!active[idx])
                    return parseError(
                        "churn: tenant is not active", "", 0,
                        ev.spec());
                if (ev.action == ChurnAction::Leave)
                    active[idx] = false;
                if (ev.action == ChurnAction::Migrate &&
                    ev.core >= 0 &&
                    static_cast<std::size_t>(ev.core) >=
                        config_.numCores)
                    return parseError(
                        "churn: migrate core out of range", "", 0,
                        ev.spec());
            }
            churn.push_back(PlannedChurn{ev, idx, 0});
        }
    }

    // Control grid: one epoch per SLO-monitor bucket when any
    // resilience feature is live, else the classic single pass.
    const bool resilience = config_.resilienceActive();
    const std::size_t E = resilience ? SloMonitor::kBuckets : 1;
    const double epochSec =
        config_.durationSec / static_cast<double>(E);
    for (PlannedChurn &pc : churn) {
        const auto snapped = static_cast<std::size_t>(
            std::llround(pc.event.atSec / epochSec));
        pc.epoch = std::min(std::max<std::size_t>(snapped, 1),
                            E > 1 ? E - 1 : 1);
    }

    // Per-tenant arrival streams: derived seeds make every stream a
    // pure function of (run seed, tenant index).
    std::vector<std::vector<double>> streams(n);
    for (std::size_t i = 0; i < n; ++i) {
        ArrivalProcess process(
            tenants_[i].arrival,
            Rng::deriveStream(config_.seed, i));
        streams[i] = process.generate(config_.durationSec);
    }

    // Flood augmentation at stream generation: antagonist flood
    // profiles and serve-granularity fault-plan flood sites thin the
    // base arrivals with a per-tenant derived stream (one draw per
    // live source per base arrival — always-draw, so sequences are
    // stable under rate changes) and append burst copies in place.
    struct FloodSource
    {
        double prob = 0.0;
        std::uint64_t burst = 0;
        double afterSec = 0.0;
        double untilSec = 0.0; ///< 0 = never ends
        std::uint64_t maxCount = 0;
        int tenant = -1; ///< -1 = every tenant
        std::uint64_t fired = 0;
    };
    std::vector<FloodSource> floodSources;
    for (const AntagonistProfile &p :
         config_.antagonists.profiles()) {
        if (p.kind != AntagonistKind::Flood)
            continue;
        FloodSource src;
        src.prob = p.rate;
        src.burst =
            static_cast<std::uint64_t>(p.effectiveMagnitude());
        src.afterSec = p.afterSec;
        src.untilSec = p.untilSec;
        src.tenant = p.tenant;
        floodSources.push_back(src);
    }
    if (config_.faults != nullptr) {
        const double cyclesPerSec = config_.core.freqGHz * 1e9;
        for (const FaultSite &site : config_.faults->sites()) {
            // Cycle-level kinds have no serve-layer analogue.
            if (site.kind != FaultKind::TraceFlood)
                continue;
            FloodSource src;
            src.prob = site.rate;
            src.burst = static_cast<std::uint64_t>(
                site.effectiveMagnitude());
            src.afterSec =
                cyclesPerSec > 0.0
                    ? static_cast<double>(site.after) / cyclesPerSec
                    : 0.0;
            src.maxCount = site.maxCount;
            src.tenant = site.tenant;
            floodSources.push_back(src);
        }
    }
    if (!floodSources.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
            bool applicable = false;
            for (const FloodSource &s : floodSources) {
                if (s.tenant < 0 ||
                    static_cast<std::size_t>(s.tenant) == i) {
                    applicable = true;
                    break;
                }
            }
            if (!applicable)
                continue;
            Rng frng(Rng::deriveStream(config_.seed,
                                       kFloodStreamSalt + i));
            std::vector<double> out;
            out.reserve(streams[i].size());
            for (double t : streams[i]) {
                out.push_back(t);
                for (FloodSource &s : floodSources) {
                    if (s.tenant >= 0 &&
                        static_cast<std::size_t>(s.tenant) != i)
                        continue;
                    if (t < s.afterSec ||
                        (s.untilSec > 0.0 && t >= s.untilSec))
                        continue;
                    const bool hit = frng.uniform() < s.prob;
                    if (!hit)
                        continue;
                    if (s.maxCount > 0 && s.fired >= s.maxCount)
                        continue;
                    ++s.fired;
                    for (std::uint64_t k = 0; k < s.burst; ++k)
                        out.push_back(t);
                }
            }
            streams[i] = std::move(out);
        }
    }

    // Resolve service means up front (cache fills are not
    // thread-safe, and the fan-out workers read them).
    for (std::size_t i = 0; i < n; ++i)
        (void)serviceUs(i);

    // Static antagonist context, admission gate, attribution
    // collector (external when attached), quarantine controller.
    std::vector<TenantStatic> statics(n);
    for (const AntagonistProfile &p :
         config_.antagonists.profiles()) {
        if (p.kind == AntagonistKind::HbmHog)
            statics[static_cast<std::size_t>(p.tenant)]
                .hogs.push_back(p);
        else if (p.kind == AntagonistKind::Thrash)
            statics[static_cast<std::size_t>(p.tenant)]
                .thrash.push_back(p);
    }

    AdmissionGate gate(n, config_.admission);
    for (std::size_t i = 0; i < n; ++i)
        gate.configure(i, tenants_[i].arrival.rps);

    AttributionCollector internalAttrib;
    AttributionCollector *attrib =
        attribution_ != nullptr ? attribution_ : &internalAttrib;
    const bool needCharges = resilience || attribution_ != nullptr;
    if (needCharges) {
        for (std::size_t i = 0; i < n; ++i) {
            // The detector reads chargedUs() by dense index, so the
            // collector must be fresh (dense index == serve index).
            const std::size_t dense = attrib->addTenant(
                static_cast<WorkloadId>(i), tenants_[i].name);
            if (dense != i)
                return parseError(
                    "serve: attribution collector already holds "
                    "tenants; attach a fresh one",
                    "", 0, tenants_[i].name);
        }
    }

    QuarantineController controller(n, config_.detector,
                                    config_.ladder);

    // Persistent per-core simulations seeded from the placement.
    const std::uint64_t spanSampleN =
        tracer_ != nullptr ? tracer_->sampler().n : 0;
    std::vector<CoreSim> sims(config_.numCores);
    std::vector<std::size_t> tenantCore = placement.tenantCore;
    for (std::size_t c = 0; c < config_.numCores; ++c) {
        CoreSim &sim = sims[c];
        sim.index = c;
        sim.rng = Rng(
            Rng::deriveStream(config_.seed, kCoreStreamSalt + c));
        sim.traceSeed = config_.seed;
        sim.spanSampleN = spanSampleN;
        sim.spanSampler = TraceSampler{spanSampleN};
        sim.dist = config_.serviceDist;
        sim.cv = config_.serviceCv;
        sim.queueCapacity = config_.queueCapacity;
        sim.durationSec = config_.durationSec;
        sim.sampleTicks = config_.queueSampleTicks;
        sim.tickSec =
            config_.queueSampleTicks > 0
                ? config_.durationSec /
                      static_cast<double>(config_.queueSampleTicks)
                : 0.0;
        sim.needCharges = needCharges;
        sim.endSec = config_.durationSec;
        for (std::size_t idx : placement.coreTenants[c]) {
            TenantFlow f;
            f.tenant = static_cast<std::uint32_t>(idx);
            f.arrivals = &streams[idx];
            f.soloMeanSec = serviceUs(idx) * 1e-6;
            f.serviceMeanSec =
                f.soloMeanSec / placement.tenantSpeed[idx];
            f.weight = tenants_[idx].slo.weight;
            f.sloTargetUs = tenants_[idx].slo.latencyTargetUs;
            f.bucket = gate.bucket(idx);
            f.stat = &statics[idx];
            f.active = !startsInactive[idx];
            sim.flows.emplace(idx, std::move(f));
        }
    }

    // Churn/quarantine bookkeeping surfaced in the report.
    std::vector<char> activeNow(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        activeNow[i] = startsInactive[i] ? 0 : 1;
    std::vector<double> joinSecV(n, 0.0);
    std::vector<double> leaveSecV(n, 0.0);
    std::vector<std::uint64_t> migrationsV(n, 0);

    // Hand one tenant's flow (waiting queue included) to another
    // core at an epoch boundary; the in-flight request, if any,
    // finishes on the source core from captured parameters.
    auto migrateFlow = [&](std::size_t t, std::size_t dest,
                           double now) {
        const std::size_t src = tenantCore[t];
        if (dest == src)
            return;
        CoreSim &s = sims[src];
        CoreSim &d = sims[dest];
        auto it = s.flows.find(t);
        if (it == s.flows.end())
            panic("serve: migrating tenant ", t,
                  " not resident on core ", src);
        TenantFlow f = std::move(it->second);
        s.flows.erase(it);
        s.waiting -= f.queued();
        d.waiting += f.queued();
        d.depthPeak = std::max(d.depthPeak,
                               static_cast<double>(d.waiting));
        f.vtime = 0.0; // SCFQ state is per-core: rejoin at vclock
        const bool hasWork = f.queued() > 0;
        d.flows.emplace(t, std::move(f));
        tenantCore[t] = dest;
        if (hasWork)
            d.kickIdle(now); // idle server must notice the handoff
    };

    // Dedicated core for an isolated antagonist: the emptiest other
    // core (ties to the lowest index); stay if already alone.
    auto isolationCore = [&](std::size_t t) {
        const std::size_t cur = tenantCore[t];
        if (sims[cur].flows.size() <= 1)
            return cur;
        std::size_t best = cur;
        std::size_t bestCount =
            std::numeric_limits<std::size_t>::max();
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            if (c == cur)
                continue;
            if (sims[c].flows.size() < bestCount) {
                best = c;
                bestCount = sims[c].flows.size();
            }
        }
        return best;
    };

    auto residentLists = [&]() {
        std::vector<std::vector<std::size_t>> lists(
            config_.numCores);
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            for (const auto &entry : sims[c].flows)
                lists[c].push_back(entry.first);
        }
        return lists;
    };

    // Per-tenant accumulators owned by the manager and filled by
    // the serial per-epoch fold (deterministic FP order).
    struct TenantAccum
    {
        LogHistogram latencyUs;
        std::uint64_t offered = 0;
        std::uint64_t completed = 0;
        std::uint64_t shed = 0;
        std::uint64_t rejected = 0;
        std::uint64_t violations = 0;
        double queueUs = 0.0;
        double serviceUs = 0.0;
        double soloUs = 0.0;
    };
    std::vector<TenantAccum> accum(n);
    SloMonitor monitor(n, config_.durationSec, config_.sloPolicy);
    std::vector<double> prevCharged(n, 0.0);
    std::vector<double> charged;

    ServingReport report;
    std::size_t churnCursor = 0;
    ParallelExecutor exec(config_.jobs);

    for (std::size_t e = 0; e < E; ++e) {
        const bool isFinal = e + 1 == E;
        const double epochEnd =
            isFinal ? config_.durationSec
                    : static_cast<double>(e + 1) * epochSec;

        // Independent per-core epoch simulations; each worker only
        // touches its own CoreSim and its residents' token buckets.
        exec.forEach(config_.numCores, [&](std::size_t c) {
            sims[c].beginEpoch();
            sims[c].runEpoch(epochEnd, isFinal);
        });

        // Serial fold in core-index order: identical accumulation
        // order (and FP results) for any --jobs value.
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            CoreSim &sim = sims[c];
            for (const CompletionRec &r : sim.completions) {
                TenantAccum &a = accum[r.tenant];
                a.latencyUs.add(r.latencyUs);
                ++a.completed;
                if (r.violated)
                    ++a.violations;
                a.queueUs += r.queueUs;
                a.serviceUs += r.serviceUs;
                a.soloUs += r.soloUs;
                monitor.addBucket(r.tenant,
                                  monitor.bucketIndex(r.endSec), 1,
                                  r.violated ? 1 : 0);
            }
            for (const auto &[t, cnt] : sim.offered)
                accum[t].offered += cnt;
            for (const auto &[t, cnt] : sim.shed)
                accum[t].shed += cnt;
            for (const auto &[t, cnt] : sim.rejected)
                accum[t].rejected += cnt;
            if (needCharges) {
                for (const WaitCharge &ch : sim.charges)
                    attrib->chargeQueueWait(ch.victim, ch.perp,
                                            ch.us);
            }
        }
        if (isFinal)
            break;

        // --- serial control step at the boundary ------------------
        const double boundary = epochEnd;

        // 1) Churn events snapped to this boundary, in plan order.
        while (churnCursor < churn.size() &&
               churn[churnCursor].epoch == e + 1) {
            const PlannedChurn &pc = churn[churnCursor++];
            const std::size_t t = pc.tenant;
            const std::size_t cur = tenantCore[t];
            ChurnRecord rec;
            rec.timeSec = boundary;
            rec.action = churnActionName(pc.event.action);
            rec.tenant = tenants_[t].name;
            rec.fromCore = cur;
            rec.toCore = cur;
            switch (pc.event.action) {
              case ChurnAction::Join: {
                TenantFlow &f = sims[cur].flows.at(t);
                f.active = true;
                // Arrivals before the join never happened: skip
                // them un-counted.
                while (f.cursor < f.arrivals->size() &&
                       (*f.arrivals)[f.cursor] < boundary)
                    ++f.cursor;
                activeNow[t] = 1;
                joinSecV[t] = boundary;
                leaveSecV[t] = 0.0;
                break;
              }
              case ChurnAction::Leave: {
                TenantFlow &f = sims[cur].flows.at(t);
                f.active = false; // queue drains gracefully
                activeNow[t] = 0;
                leaveSecV[t] = boundary;
                break;
              }
              case ChurnAction::Migrate: {
                std::size_t dest;
                if (pc.event.core >= 0) {
                    dest =
                        static_cast<std::size_t>(pc.event.core);
                } else {
                    // Least-loaded: fewest resident flows, ties to
                    // the lowest index, never the source core.
                    dest = cur;
                    std::size_t bestCount =
                        std::numeric_limits<std::size_t>::max();
                    for (std::size_t c = 0; c < config_.numCores;
                         ++c) {
                        if (c == cur)
                            continue;
                        if (sims[c].flows.size() < bestCount) {
                            dest = c;
                            bestCount = sims[c].flows.size();
                        }
                    }
                }
                rec.toCore = dest;
                ++migrationsV[t];
                migrateFlow(t, dest, boundary);
                break;
              }
            }
            report.churnEvents.push_back(std::move(rec));
        }

        // 2) AIMD admission adaptation from the online burn-rate
        //    signal (SLO monitor data through this epoch).
        if (gate.enabled()) {
            for (std::size_t t = 0; t < n; ++t) {
                if (!activeNow[t] ||
                    controller.stage(t) ==
                        QuarantineStage::Evicted)
                    continue;
                const BurnRateStatus st =
                    monitor.statusAt(t, boundary);
                const AdmissionGate::Change change =
                    gate.adapt(t, st.alert);
                if (change == AdmissionGate::Change::Held)
                    continue;
                AdmissionRecord rec;
                rec.timeSec = boundary;
                rec.epoch = e + 1;
                rec.tenant = tenants_[t].name;
                rec.action =
                    change == AdmissionGate::Change::Decreased
                        ? "decrease"
                        : "recover";
                rec.rateRps = gate.rateRps(t);
                report.admissionEvents.push_back(std::move(rec));
            }
        }

        // 3) Antagonist detection and the quarantine ladder: the
        //    epoch perpetrator score is the queue-wait the tenant
        //    inflicted this epoch per microsecond of epoch (mean
        //    co-runner requests stalled behind it).
        if (needCharges) {
            const double epochUs = epochSec * 1e6;
            attrib->chargedUsAll(charged);
            for (std::size_t t = 0; t < n; ++t) {
                const double total = charged[t];
                const double score =
                    (total - prevCharged[t]) / epochUs;
                prevCharged[t] = total;
                QuarantineController::Transition tr;
                if (!controller.observe(t, score, &tr))
                    continue;
                QuarantineRecord rec;
                rec.timeSec = boundary;
                rec.epoch = e + 1;
                rec.tenant = tenants_[t].name;
                rec.from = quarantineStageName(tr.from);
                rec.to = quarantineStageName(tr.to);
                rec.strikes = tr.strikes;
                rec.score = tr.score;
                report.quarantineEvents.push_back(std::move(rec));
                auto refreshBucket = [&] {
                    sims[tenantCore[t]].flows.at(t).bucket =
                        gate.bucket(t);
                };
                switch (tr.to) {
                  case QuarantineStage::Throttled:
                    if (tr.from == QuarantineStage::Isolated) {
                        // De-escalation: keep the throttle, re-pair
                        // with the best-matched survivors.
                        migrateFlow(t,
                                    repairCore(t, tenantCore[t],
                                               residentLists()),
                                    boundary);
                    } else {
                        gate.throttle(
                            t, config_.ladder.throttleFactor);
                        refreshBucket();
                    }
                    break;
                  case QuarantineStage::Isolated:
                    migrateFlow(t, isolationCore(t), boundary);
                    break;
                  case QuarantineStage::Evicted: {
                    gate.block(t);
                    refreshBucket();
                    CoreSim &host = sims[tenantCore[t]];
                    TenantFlow &f = host.flows.at(t);
                    f.active = false;
                    activeNow[t] = 0;
                    const std::size_t dropped = f.queued();
                    accum[t].shed += dropped; // queue dropped
                    host.waiting -= dropped;
                    f.queue.clear();
                    f.head = 0;
                    break;
                  }
                  case QuarantineStage::Healthy:
                    gate.release(t);
                    refreshBucket();
                    break;
                }
            }
        }
    }

    report.policy = placementPolicyName(config_.policy);
    report.durationSec = config_.durationSec;
    report.cores = config_.numCores;
    report.controlEpochs = E;
    report.admissionEnabled = gate.enabled();
    report.tenants.resize(n);

    double util_sum = 0.0;
    for (std::size_t c = 0; c < config_.numCores; ++c) {
        const CoreSim &sim = sims[c];
        CoreServingStats core;
        core.index = c;
        core.served = sim.served;
        core.busySec = sim.busySec;
        core.util =
            sim.endSec > 0.0 ? sim.busySec / sim.endSec : 0.0;
        const double horizon =
            std::max(sim.endSec, config_.durationSec);
        if (horizon > 0.0) {
            core.queueDepthMean = sim.depthArea / horizon;
            core.inFlightMean = sim.busyArea / horizon;
        }
        core.queueDepthPeak = sim.depthPeak;
        for (const auto &[idx, f] : sim.flows) {
            core.tenants.push_back(tenants_[idx].name);
            core.speedFactor = placement.tenantSpeed[idx];
        }
        if (!sim.flows.empty()) {
            ++report.coresUsed;
            util_sum += core.util;
        }
        report.coreStats.push_back(std::move(core));
    }

    for (std::size_t i = 0; i < n; ++i) {
        const ServeTenant &t = tenants_[i];
        const TenantAccum &a = accum[i];
        TenantServingStats &ts = report.tenants[i];
        ts.name = t.name;
        ts.model = t.model;
        ts.core = tenantCore[i];
        ts.offered = a.offered;
        ts.completed = a.completed;
        ts.shed = a.shed;
        ts.rejected = a.rejected;
        ts.inFlightAtEnd =
            sims[tenantCore[i]].flows.at(i).queued();
        ts.sloViolations = a.violations;
        ts.sloTargetUs = t.slo.latencyTargetUs;
        ts.weight = t.slo.weight;
        ts.offeredRps = static_cast<double>(ts.offered) /
                        config_.durationSec;
        ts.goodputRps =
            static_cast<double>(ts.completed - ts.sloViolations) /
            config_.durationSec;
        ts.meanUs = a.latencyUs.mean();
        ts.p50Us = a.latencyUs.percentile(50.0);
        ts.p99Us = a.latencyUs.percentile(99.0);
        ts.p999Us = a.latencyUs.percentile(99.9);
        ts.maxUs = a.latencyUs.max();
        ts.attribQueueUs = a.queueUs;
        ts.attribServiceUs = a.serviceUs;
        ts.attribSoloUs = a.soloUs;
        ts.attribInflationUs = a.serviceUs - a.soloUs;
        ts.attribSojournUs = a.queueUs + a.serviceUs;
        if (gate.enabled() ||
            controller.stage(i) != QuarantineStage::Healthy) {
            ts.admitRpsBase = gate.baseRps(i);
            ts.admitRpsFinal = gate.rateRps(i);
            ts.admitDecreases = gate.decreases(i);
            ts.admitIncreases = gate.increases(i);
        }
        ts.quarantineStage =
            quarantineStageName(controller.stage(i));
        ts.strikes = controller.strikes(i);
        ts.peakAntagonistScore = controller.peakScore(i);
        ts.joinSec = joinSecV[i];
        ts.leaveSec = leaveSecV[i];
        ts.migrations = migrationsV[i];
    }

    for (std::size_t i = 0; i < n; ++i) {
        const BurnRateStatus burn = monitor.status(i);
        report.tenants[i].burnShort = burn.shortBurn;
        report.tenants[i].burnLong = burn.longBurn;
        report.tenants[i].sloAlert = burn.alert;
        if (burn.alert)
            ++report.sloAlerts;
    }
    for (const TenantServingStats &ts : report.tenants) {
        report.offered += ts.offered;
        report.completed += ts.completed;
        report.shed += ts.shed;
        report.rejected += ts.rejected;
        report.inFlightAtEnd += ts.inFlightAtEnd;
        report.sloViolations += ts.sloViolations;
        report.goodputRps += ts.goodputRps;
    }
    report.meanCoreUtil =
        report.coresUsed > 0
            ? util_sum / static_cast<double>(report.coresUsed)
            : 0.0;
    // Conservation self-check: a leaked shed/reject path is a bug,
    // surfaced as a structured error rather than silent drift.
    if (Status s = report.checkConservation(); !s)
        return s.error();

    if (tracer_ != nullptr) {
        // Merge per-core span lists into one deterministic total
        // order: (arrival, tenant, seq) — identical for any jobs
        // value because the per-core lists themselves are.
        std::vector<RequestSpan> merged;
        for (const CoreSim &sim : sims) {
            for (const RequestSpan &s : sim.spans) {
                RequestSpan span = s;
                span.tenant = tenants_[span.ctx.tenant].name;
                merged.push_back(std::move(span));
            }
        }
        std::sort(merged.begin(), merged.end(),
                  [](const RequestSpan &a, const RequestSpan &b) {
                      if (a.arrivalUs != b.arrivalUs)
                          return a.arrivalUs < b.arrivalUs;
                      if (a.ctx.tenant != b.ctx.tenant)
                          return a.ctx.tenant < b.ctx.tenant;
                      return a.ctx.seq < b.ctx.seq;
                  });
        for (RequestSpan &span : merged)
            tracer_->add(std::move(span));
    }

    if (sampler_ != nullptr && config_.queueSampleTicks > 0) {
        // Per-core occupancy series as sampler columns, one row per
        // tick; cycle timestamps come from the core clock so the
        // Chrome counter tracks line up with the rest of the trace.
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            const std::string prefix =
                "core" + std::to_string(c);
            sampler_->addManualColumn(prefix + ".queue_depth");
            sampler_->addManualColumn(prefix + ".in_flight");
        }
        const double cyclesPerSec = config_.core.freqGHz * 1e9;
        const double tickSec =
            config_.durationSec /
            static_cast<double>(config_.queueSampleTicks);
        std::vector<double> row(config_.numCores * 2, 0.0);
        for (std::size_t k = 0; k < config_.queueSampleTicks; ++k) {
            for (std::size_t c = 0; c < config_.numCores; ++c) {
                const CoreSim &sim = sims[c];
                row[c * 2] = k < sim.depthSamples.size()
                                 ? sim.depthSamples[k]
                                 : 0.0;
                row[c * 2 + 1] = k < sim.inflightSamples.size()
                                     ? sim.inflightSamples[k]
                                     : 0.0;
            }
            const auto cycle = static_cast<Cycles>(
                static_cast<double>(k + 1) * tickSec *
                cyclesPerSec);
            sampler_->appendRow(cycle, row);
        }
    }

    if (stats_ != nullptr)
        registerServingStats(*stats_, report);
    return report;
}

} // namespace v10
