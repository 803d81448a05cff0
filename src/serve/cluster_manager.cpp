#include "serve/cluster_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/annotations.h"
#include "common/log.h"
#include "common/parallel_executor.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "metrics/interval_sampler.h"
#include "metrics/stat_registry.h"
#include "serve/core_sim.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "workload/model_zoo.h"

namespace v10 {

namespace {

/** Stream-id space separation: tenants draw arrival streams below
 * the core salt, cores draw service streams above it, and the
 * flood-burst thinning draws live above both (serve/arrival.cpp). */
constexpr std::uint64_t kCoreStreamSalt = 1ull << 32;

/** The run's flood sources: antagonist flood profiles, then the
 * fault plan's serve-granularity flood sites (cycle fields converted
 * to sim seconds via the core clock). */
std::vector<FloodSource>
floodSources(const ServeConfig &config)
{
    std::vector<FloodSource> sources;
    for (const AntagonistProfile &p : config.antagonists.profiles()) {
        if (p.kind != AntagonistKind::Flood)
            continue;
        FloodSource src;
        src.prob = p.rate;
        src.burst = static_cast<std::uint64_t>(p.effectiveMagnitude());
        src.afterSec = p.afterSec;
        src.untilSec = p.untilSec;
        src.tenant = p.tenant;
        sources.push_back(src);
    }
    if (config.faults != nullptr) {
        const double cyclesPerSec = config.core.freqGHz * 1e9;
        for (const FaultSite &site : config.faults->sites()) {
            // Cycle-level kinds have no serve-layer analogue.
            if (site.kind != FaultKind::TraceFlood)
                continue;
            FloodSource src;
            src.prob = site.rate;
            src.burst =
                static_cast<std::uint64_t>(site.effectiveMagnitude());
            src.afterSec =
                cyclesPerSec > 0.0
                    ? static_cast<double>(site.after) / cyclesPerSec
                    : 0.0;
            src.maxCount = site.maxCount;
            src.tenant = site.tenant;
            sources.push_back(src);
        }
    }
    return sources;
}

/** Index of the smallest load, ties to the lowest index. */
std::size_t
leastLoaded(const std::vector<double> &load)
{
    return static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
}

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
        const std::size_t best = leastLoaded(load);
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
    std::iota(order.begin(), order.end(), std::size_t{0});
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
        const std::size_t best = leastLoaded(load);
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

namespace {

/** The serve-layer resilience surface (defaults all pass). */
Status
checkResilience(const ServeConfig &config, std::size_t tenants)
{
    if (Status s = config.admission.check(); !s)
        return s;
    if (Status s = config.detector.check(); !s)
        return s;
    if (Status s = config.ladder.check(); !s)
        return s;
    if (Status s = config.churn.check(config.durationSec); !s)
        return s;
    return config.antagonists.check(tenants, config.durationSec);
}

/** One run's state (flows, cores, the control loop's gate,
 * controller and attribution, the report) and the phases of
 * ClusterManager::run() over it. */
struct ServeRun
{
    const ServeConfig &config;
    const std::vector<ServeTenant> &tenants;
    const std::size_t n;
    const ServePlacement placement;
    const ResolvedChurn churn;
    /** Trained advisor (Advisor policy), else nullptr. */
    NpuCluster *const advisor;
    /** Control grid: one epoch per SLO-monitor bucket when any
     * resilience feature is live, else the classic single pass. */
    const std::size_t epochs;
    const double epochSec;
    AttributionCollector internalAttrib;
    AttributionCollector *const attrib; ///< external when attached
    const bool needCharges;
    std::vector<TenantStatic> statics;
    AdmissionGate gate;
    QuarantineController controller;
    SloMonitor monitor;
    /** Per-tenant flows (they never move in memory; a core lists its
     * residents) and the persistent per-core simulations: an epoch's
     * fan-out worker c touches sims[c] only. */
    std::vector<TenantFlow> flows;
    std::vector<CoreSim> sims V10_SHARED_STATE;
    std::vector<std::size_t> tenantCore;
    std::vector<double> prevCharged;
    std::vector<double> charged;
    std::vector<std::uint32_t> splitTenants;
    std::size_t churnCursor = 0;
    ServingReport report;
    ParallelExecutor exec;

    /** Set up the flows and the per-core simulations. */
    ServeRun(const ServeConfig &config,
             const std::vector<ServeTenant> &tenants,
             const std::vector<double> &serviceUs,
             ServePlacement placed, ResolvedChurn resolved,
             NpuCluster *advisor, AttributionCollector *external,
             std::uint64_t spanSampleN)
        : config(config), tenants(tenants), n(tenants.size()),
          placement(std::move(placed)), churn(std::move(resolved)),
          advisor(advisor),
          epochs(config.resilienceActive() ? SloMonitor::kBuckets : 1),
          epochSec(config.durationSec / static_cast<double>(epochs)),
          attrib(external != nullptr ? external : &internalAttrib),
          needCharges(config.resilienceActive() ||
                      external != nullptr),
          statics(n),
          gate(n, config.admission),
          controller(n, config.detector, config.ladder),
          monitor(n, config.durationSec, config.sloPolicy),
          sims(config.numCores),
          tenantCore(placement.tenantCore), prevCharged(n, 0.0),
          exec(config.jobs)
    {
        for (const AntagonistProfile &p :
             config.antagonists.profiles()) {
            TenantStatic &st =
                statics[static_cast<std::size_t>(p.tenant)];
            if (p.kind == AntagonistKind::HbmHog)
                st.hogs.push_back(p);
            else if (p.kind == AntagonistKind::Thrash)
                st.thrash.push_back(p);
        }
        // Lazy per-tenant arrival feeds: base process plus flood
        // bursts, a pure function of (run seed, tenant index).
        std::vector<ArrivalSpec> specs;
        for (const ServeTenant &t : tenants)
            specs.push_back(t.arrival);
        const ArrivalPlan arrivals(std::move(specs), config.seed,
                                   config.durationSec,
                                   floodSources(config));
        flows.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            gate.configure(i, tenants[i].arrival.rps);
            TenantFlow &f = flows.emplace_back(arrivals.feed(i));
            f.tenant = static_cast<std::uint32_t>(i);
            const double soloMeanSec = serviceUs[i] * 1e-6;
            f.serviceMeanSec = soloMeanSec / placement.tenantSpeed[i];
            if (f.serviceMeanSec > 0.0)
                f.soloSpeed = soloMeanSec / f.serviceMeanSec;
            f.weight = tenants[i].slo.weight;
            f.sloTargetUs = tenants[i].slo.latencyTargetUs;
            f.bucket = gate.bucket(i);
            f.stat = &statics[i];
            f.active = !churn.startsDormant[i];
        }
        for (std::size_t c = 0; c < sims.size(); ++c) {
            CoreSim &sim = sims[c];
            sim.index = c;
            sim.rng = Rng(
                Rng::deriveStream(config.seed, kCoreStreamSalt + c));
            sim.traceSeed = config.seed;
            sim.spanSampler = TraceSampler{spanSampleN};
            sim.dist = config.serviceDist;
            sim.cv = config.serviceCv;
            sim.queueCapacity = config.queueCapacity;
            sim.sampleTicks = config.queueSampleTicks;
            sim.tickSec =
                config.queueSampleTicks > 0
                    ? config.durationSec /
                          static_cast<double>(config.queueSampleTicks)
                    : 0.0;
            sim.needCharges = needCharges;
            sim.endSec = config.durationSec;
            sim.flowTable = &flows;
            sim.monitor = &monitor;
            for (std::size_t idx : placement.coreTenants[c])
                sim.addResident(static_cast<std::uint32_t>(idx));
        }
        report.tenants.resize(n);
    }

    /** The cores point into flows and monitor: never copied. */
    ServeRun(const ServeRun &) = delete;
    ServeRun &operator=(const ServeRun &) = delete;

    Status
    registerTenants()
    {
        if (!needCharges)
            return Status::ok();
        // The detector reads chargedUs() by dense index, so the
        // collector must be fresh: then tenant i gets dense index i.
        if (attrib->tenantCount() != 0)
            return parseError("serve: attribution collector already "
                              "holds tenants; attach a fresh one",
                              "", 0, tenants.front().name);
        for (std::size_t i = 0; i < n; ++i)
            (void)attrib->addTenant(static_cast<WorkloadId>(i),
                                    tenants[i].name);
        return Status::ok();
    }

    void
    simulateEpoch(std::size_t e)
    {
        const bool isFinal = e + 1 == epochs;
        const double epochEnd =
            isFinal ? config.durationSec
                    : static_cast<double>(e + 1) * epochSec;

        // A tenant still in service on a core it migrated away from
        // completes on two cores this epoch: its completions are
        // buffered and folded serially in core-index order, the
        // order every --jobs value agrees on. Every other completion
        // folds inside its host core's worker.
        for (std::uint32_t t : splitTenants)
            flows[t].foldSerially = false;
        splitTenants.clear();
        for (std::size_t c = 0; c < sims.size(); ++c) {
            const CoreSim &sim = sims[c];
            if (sim.busy && tenantCore[sim.servedTenant] != c &&
                !flows[sim.servedTenant].foldSerially) {
                flows[sim.servedTenant].foldSerially = true;
                splitTenants.push_back(sim.servedTenant);
            }
        }

        // Independent per-core epoch simulations; each worker only
        // touches its own CoreSim, its residents' flows and token
        // buckets, and their SLO monitor rows.
        exec.forEach(sims.size(), [&](std::size_t c) {
            sims[c].completions.clear();
            sims[c].charges.clear();
            sims[c].runEpoch(epochEnd, isFinal);
        });

        // Cores buffer charges only when needCharges is set.
        for (const CoreSim &sim : sims) {
            for (const CompletionRec &r : sim.completions)
                foldCompletion(r, flows[r.tenant].acc, monitor);
            for (const WaitCharge &ch : sim.charges)
                attrib->chargeQueueWait(ch.victim, ch.perp, ch.us);
        }
        // The drain took every other tenant's latency figures.
        if (isFinal) {
            for (std::uint32_t t : splitTenants)
                flows[t].acc.takeLatencyFigures();
        }
    }

    void
    migrateFlow(std::size_t t, std::size_t dest, double now)
    {
        // Hand one tenant's flow (waiting queue included) to another
        // core at an epoch boundary; the in-flight request, if any,
        // finishes on the source core from captured parameters.
        const std::size_t src = tenantCore[t];
        if (dest == src)
            return;
        CoreSim &s = sims[src];
        CoreSim &d = sims[dest];
        TenantFlow &f = flows[t];
        s.removeResident(f.tenant);
        d.addResident(f.tenant);
        s.waiting -= f.queued();
        d.waiting += f.queued();
        d.depthPeak =
            std::max(d.depthPeak, static_cast<double>(d.waiting));
        f.vtime = 0.0; // SCFQ state is per-core: rejoin at vclock
        tenantCore[t] = dest;
        if (f.queued() > 0)
            d.kickIdle(now); // idle server must notice the handoff
    }

    /** The core with the fewest residents other than @p except, ties
     * to the lowest index (@p except on a one-core fleet). */
    std::size_t
    emptiestOtherCore(std::size_t except) const
    {
        std::size_t best = except;
        std::size_t bestCount = std::numeric_limits<std::size_t>::max();
        for (std::size_t c = 0; c < sims.size(); ++c) {
            if (c != except && sims[c].residents.size() < bestCount) {
                best = c;
                bestCount = sims[c].residents.size();
            }
        }
        return best;
    }

    /** Re-pair target core for recovering tenant @p t: the advisor's
     * best predicted gain against a core's residents (when the
     * advisor was trained), ties toward the emptiest core, then the
     * lowest index; never the isolation core it leaves. */
    std::size_t
    repairCore(std::size_t t) const
    {
        const std::size_t current = tenantCore[t];
        std::size_t best = current;
        double bestGain = -1.0;
        std::size_t bestCount = 0;
        for (std::size_t c = 0; c < sims.size(); ++c) {
            if (c == current)
                continue;
            double gain = 0.0;
            for (std::uint32_t other : sims[c].residents) {
                if (advisor != nullptr && other != t)
                    gain = std::max(
                        gain, advisor
                                  ->predictedGain(tenants[t].model,
                                                  tenants[other].model)
                                  .value());
            }
            const std::size_t count = sims[c].residents.size();
            if (best == current || gain > bestGain ||
                (gain == bestGain && count < bestCount)) {
                best = c;
                bestGain = gain;
                bestCount = count;
            }
        }
        return best;
    }

    /** Control step at boundary @p b: churn events snapped to it (the
     * nearest inner boundary), in plan order. */
    void
    applyChurn(std::size_t b)
    {
        const double boundary = static_cast<double>(b) * epochSec;
        for (; churnCursor < churn.tenant.size(); ++churnCursor) {
            const ChurnEvent &ev = config.churn.events()[churnCursor];
            const auto snapped = static_cast<std::size_t>(
                std::llround(ev.atSec / epochSec));
            if (std::clamp<std::size_t>(snapped, 1, epochs - 1) != b)
                break;
            const std::size_t t = churn.tenant[churnCursor];
            TenantFlow &f = flows[t];
            TenantServingStats &ts = report.tenants[t];
            ChurnRecord rec;
            rec.timeSec = boundary;
            rec.action = churnActionName(ev.action);
            rec.tenant = tenants[t].name;
            rec.fromCore = rec.toCore = tenantCore[t];
            switch (ev.action) {
              case ChurnAction::Join:
                f.active = true;
                // Arrivals before the join never happened: skip them
                // un-counted.
                while (f.nextArrival < boundary) {
                    f.nextArrival = f.arrivals.next();
                    ++f.seq;
                }
                ts.joinSec = boundary;
                ts.leaveSec = 0.0;
                break;
              case ChurnAction::Leave:
                f.active = false; // queue drains gracefully
                ts.leaveSec = boundary;
                break;
              case ChurnAction::Migrate:
                rec.toCore = ev.core >= 0
                                 ? static_cast<std::size_t>(ev.core)
                                 : emptiestOtherCore(rec.fromCore);
                ++ts.migrations;
                migrateFlow(t, rec.toCore, boundary);
                break;
            }
            report.churnEvents.push_back(std::move(rec));
        }
    }

    /** Control step at boundary @p b: AIMD admission adaptation from
     * the online burn-rate signal (SLO monitor data so far). */
    void
    adaptAdmission(std::size_t b)
    {
        if (!gate.enabled())
            return;
        const double boundary = static_cast<double>(b) * epochSec;
        for (std::size_t t = 0; t < n; ++t) {
            if (!flows[t].active ||
                controller.stage(t) == QuarantineStage::Evicted)
                continue;
            const BurnRateStatus st = monitor.statusAt(t, boundary);
            const AdmissionGate::Change change =
                gate.adapt(t, st.alert);
            if (change == AdmissionGate::Change::Held)
                continue;
            AdmissionRecord rec;
            rec.timeSec = boundary;
            rec.epoch = b;
            rec.tenant = tenants[t].name;
            rec.action = change == AdmissionGate::Change::Decreased
                             ? "decrease"
                             : "recover";
            rec.rateRps = gate.rateRps(t);
            report.admissionEvents.push_back(std::move(rec));
        }
    }

    /** Control step at boundary @p b: antagonist detection and the
     * quarantine ladder. The epoch perpetrator score is the
     * queue-wait the tenant inflicted this epoch per microsecond of
     * epoch (mean co-runner requests stalled behind it). */
    void
    stepQuarantine(std::size_t b)
    {
        if (!needCharges)
            return;
        const double boundary = static_cast<double>(b) * epochSec;
        const double epochUs = epochSec * 1e6;
        attrib->chargedUsAll(charged);
        for (std::size_t t = 0; t < n; ++t) {
            const double score = (charged[t] - prevCharged[t]) / epochUs;
            prevCharged[t] = charged[t];
            QuarantineController::Transition tr;
            if (!controller.observe(t, score, &tr))
                continue;
            QuarantineRecord rec;
            rec.timeSec = boundary;
            rec.epoch = b;
            rec.tenant = tenants[t].name;
            rec.from = quarantineStageName(tr.from);
            rec.to = quarantineStageName(tr.to);
            rec.strikes = tr.strikes;
            rec.score = tr.score;
            report.quarantineEvents.push_back(std::move(rec));
            applyTransition(t, tr, boundary);
        }
    }

    void
    applyTransition(std::size_t t,
                    const QuarantineController::Transition &tr,
                    double boundary)
    {
        TenantFlow &f = flows[t];
        const std::size_t cur = tenantCore[t];
        switch (tr.to) {
          case QuarantineStage::Throttled:
            if (tr.from == QuarantineStage::Isolated) {
                // De-escalation: keep the throttle, re-pair with the
                // best-matched survivors.
                migrateFlow(t, repairCore(t), boundary);
                return;
            }
            gate.throttle(t, config.ladder.throttleFactor);
            break;
          case QuarantineStage::Isolated:
            // A dedicated core; stay if already alone.
            migrateFlow(t,
                        sims[cur].residents.size() <= 1
                            ? cur
                            : emptiestOtherCore(cur),
                        boundary);
            return;
          case QuarantineStage::Evicted:
            gate.block(t);
            f.active = false;
            f.shed += f.queued(); // queue dropped
            sims[cur].waiting -= f.queued();
            f.clearQueue();
            break;
          case QuarantineStage::Healthy:
            gate.release(t);
            break;
        }
        f.bucket = gate.bucket(t);
    }

    const TenantServingStats &
    tenantStats(std::size_t i)
    {
        const ServeTenant &t = tenants[i];
        const TenantFlow &f = flows[i];
        const TenantAccum &a = f.acc;
        TenantServingStats &ts = report.tenants[i];
        ts.name = t.name;
        ts.model = t.model;
        ts.core = tenantCore[i];
        ts.offered = f.offered;
        ts.completed = a.completed;
        ts.shed = f.shed;
        ts.rejected = f.rejected;
        ts.inFlightAtEnd = f.queued();
        ts.sloViolations = a.violations;
        ts.sloTargetUs = t.slo.latencyTargetUs;
        ts.weight = t.slo.weight;
        ts.offeredRps =
            static_cast<double>(ts.offered) / config.durationSec;
        ts.goodputRps =
            static_cast<double>(ts.completed - ts.sloViolations) /
            config.durationSec;
        ts.meanUs = a.latency.meanUs;
        ts.p50Us = a.latency.p50Us;
        ts.p99Us = a.latency.p99Us;
        ts.p999Us = a.latency.p999Us;
        ts.maxUs = a.latency.maxUs;
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
        ts.quarantineStage = quarantineStageName(controller.stage(i));
        ts.strikes = controller.strikes(i);
        ts.peakAntagonistScore = controller.peakScore(i);
        const BurnRateStatus burn = monitor.status(i);
        ts.burnShort = burn.shortBurn;
        ts.burnLong = burn.longBurn;
        ts.sloAlert = burn.alert;
        return ts;
    }

    Status
    assembleReport()
    {
        report.policy = placementPolicyName(config.policy);
        report.durationSec = config.durationSec;
        report.cores = config.numCores;
        report.controlEpochs = epochs;
        report.admissionEnabled = gate.enabled();
        double utilSum = 0.0;
        for (const CoreSim &sim : sims) {
            // endSec starts at the duration and only grows: it is the
            // horizon of the occupancy integrals.
            CoreServingStats &core = report.coreStats.emplace_back();
            core.index = sim.index;
            core.served = sim.served;
            core.busySec = sim.busySec;
            core.util = sim.busySec / sim.endSec;
            core.queueDepthMean = sim.depthArea / sim.endSec;
            core.inFlightMean = sim.busyArea / sim.endSec;
            core.queueDepthPeak = sim.depthPeak;
            for (std::uint32_t idx : sim.residents) {
                core.tenants.push_back(tenants[idx].name);
                core.speedFactor = placement.tenantSpeed[idx];
            }
            if (!sim.residents.empty()) {
                ++report.coresUsed;
                utilSum += core.util;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const TenantServingStats &ts = tenantStats(i);
            report.offered += ts.offered;
            report.completed += ts.completed;
            report.shed += ts.shed;
            report.rejected += ts.rejected;
            report.inFlightAtEnd += ts.inFlightAtEnd;
            report.sloViolations += ts.sloViolations;
            report.goodputRps += ts.goodputRps;
            report.sloAlerts += ts.sloAlert ? 1 : 0;
        }
        report.meanCoreUtil =
            report.coresUsed > 0
                ? utilSum / static_cast<double>(report.coresUsed)
                : 0.0;
        // Conservation self-check: a leaked shed/reject path is a
        // bug, surfaced as a structured error, not silent drift.
        return report.checkConservation();
    }

    void
    emitSpans(RequestTracer *tracer) const
    {
        if (tracer == nullptr)
            return;
        // Merge per-core span lists into one deterministic total
        // order: (arrival, tenant, seq) — identical for any jobs
        // value because the per-core lists themselves are.
        std::vector<RequestSpan> merged;
        for (const CoreSim &sim : sims) {
            for (RequestSpan span : sim.spans) {
                span.tenant = tenants[span.ctx.tenant].name;
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
            tracer->add(std::move(span));
    }

    void
    emitQueueSamples(IntervalSampler *sampler) const
    {
        if (sampler == nullptr || config.queueSampleTicks == 0)
            return;
        // Per-core occupancy series as sampler columns, one row per
        // tick; cycle timestamps come from the core clock so the
        // Chrome counter tracks line up with the rest of the trace.
        for (std::size_t c = 0; c < sims.size(); ++c) {
            const std::string prefix = "core" + std::to_string(c);
            sampler->addManualColumn(prefix + ".queue_depth");
            sampler->addManualColumn(prefix + ".in_flight");
        }
        const double cyclesPerSec = config.core.freqGHz * 1e9;
        std::vector<double> row(sims.size() * 2, 0.0);
        for (std::size_t k = 0; k < config.queueSampleTicks; ++k) {
            // The final epoch pads every series to the tick count.
            for (std::size_t c = 0; c < sims.size(); ++c) {
                row[c * 2] = sims[c].depthSamples[k];
                row[c * 2 + 1] = sims[c].inflightSamples[k];
            }
            const auto cycle = static_cast<Cycles>(
                static_cast<double>(k + 1) * sims.front().tickSec *
                cyclesPerSec);
            sampler->appendRow(cycle, row);
        }
    }
};

} // namespace

Result<ServingReport>
ClusterManager::run()
{
    auto placement = place();
    if (!placement.ok())
        return placement.error();
    if (Status s = checkResilience(config_, tenants_.size()); !s)
        return s.error();
    std::vector<std::string> names;
    for (const ServeTenant &t : tenants_)
        names.push_back(t.name);
    auto churn = config_.churn.resolve(names, config_.numCores);
    if (!churn.ok())
        return churn.error();
    // Resolve service means up front (cache fills are not
    // thread-safe, and the fan-out workers read them).
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        (void)serviceUs(i);
    ServeRun run(config_, tenants_, service_us_cache_, placement.take(),
                 churn.take(), advisor_fleet_.get(), attribution_,
                 tracer_ != nullptr ? tracer_->sampler().n : 0);
    if (Status s = run.registerTenants(); !s)
        return s.error();
    // Each epoch but the last ends in the serial control step.
    for (std::size_t b = 1; b < run.epochs; ++b) {
        run.simulateEpoch(b - 1);
        run.applyChurn(b);
        run.adaptAdmission(b);
        run.stepQuarantine(b);
    }
    run.simulateEpoch(run.epochs - 1);
    if (Status s = run.assembleReport(); !s)
        return s.error();
    run.emitSpans(tracer_);
    run.emitQueueSamples(sampler_);
    if (stats_ != nullptr)
        registerServingStats(*stats_, run.report);
    return std::move(run.report);
}

} // namespace v10
