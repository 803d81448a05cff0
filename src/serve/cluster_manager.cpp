#include "serve/cluster_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

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

    // Lazy per-tenant arrival feeds: base process plus flood bursts,
    // a pure function of (run seed, tenant index).
    std::vector<ArrivalSpec> specs;
    specs.reserve(n);
    for (const ServeTenant &t : tenants_)
        specs.push_back(t.arrival);
    const ArrivalPlan arrivals(std::move(specs), config_.seed,
                               config_.durationSec,
                               floodSources(config_));

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

    // Per-tenant flows (they never move in memory; a core lists its
    // residents) and the SLO monitor the core workers fold into.
    std::vector<TenantFlow> flows;
    flows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        TenantFlow &f = flows.emplace_back(arrivals.feed(i));
        f.tenant = static_cast<std::uint32_t>(i);
        f.soloMeanSec = serviceUs(i) * 1e-6;
        f.serviceMeanSec = f.soloMeanSec / placement.tenantSpeed[i];
        f.weight = tenants_[i].slo.weight;
        f.sloTargetUs = tenants_[i].slo.latencyTargetUs;
        f.bucket = gate.bucket(i);
        f.stat = &statics[i];
        f.active = !startsInactive[i];
    }
    SloMonitor monitor(n, config_.durationSec, config_.sloPolicy);

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
        sim.flowTable = &flows;
        sim.monitor = &monitor;
        for (std::size_t idx : placement.coreTenants[c])
            sim.residents.push_back(static_cast<std::uint32_t>(idx));
        std::sort(sim.residents.begin(), sim.residents.end());
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
        TenantFlow &f = flows[t];
        s.removeResident(f.tenant);
        d.addResident(f.tenant);
        s.waiting -= f.queued();
        d.waiting += f.queued();
        d.depthPeak = std::max(d.depthPeak,
                               static_cast<double>(d.waiting));
        f.vtime = 0.0; // SCFQ state is per-core: rejoin at vclock
        tenantCore[t] = dest;
        if (f.queued() > 0)
            d.kickIdle(now); // idle server must notice the handoff
    };

    // Dedicated core for an isolated antagonist: the emptiest other
    // core (ties to the lowest index); stay if already alone.
    auto isolationCore = [&](std::size_t t) {
        const std::size_t cur = tenantCore[t];
        if (sims[cur].residents.size() <= 1)
            return cur;
        std::size_t best = cur;
        std::size_t bestCount =
            std::numeric_limits<std::size_t>::max();
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            if (c == cur)
                continue;
            if (sims[c].residents.size() < bestCount) {
                best = c;
                bestCount = sims[c].residents.size();
            }
        }
        return best;
    };

    auto residentLists = [&]() {
        std::vector<std::vector<std::size_t>> lists(
            config_.numCores);
        for (std::size_t c = 0; c < config_.numCores; ++c)
            lists[c].assign(sims[c].residents.begin(),
                            sims[c].residents.end());
        return lists;
    };

    std::vector<double> prevCharged(n, 0.0);
    std::vector<double> charged;

    ServingReport report;
    std::size_t churnCursor = 0;
    std::vector<std::uint32_t> splitTenants;
    ParallelExecutor exec(config_.jobs);

    for (std::size_t e = 0; e < E; ++e) {
        const bool isFinal = e + 1 == E;
        const double epochEnd =
            isFinal ? config_.durationSec
                    : static_cast<double>(e + 1) * epochSec;

        // A tenant still in service on a core it migrated away from
        // completes on two cores this epoch: its completions are
        // buffered and folded serially in core-index order, the
        // order every --jobs value agrees on. Every other completion
        // folds inside its host core's worker.
        for (std::uint32_t t : splitTenants)
            flows[t].foldSerially = false;
        splitTenants.clear();
        for (std::size_t c = 0; c < config_.numCores; ++c) {
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
        exec.forEach(config_.numCores, [&](std::size_t c) {
            sims[c].completions.clear();
            sims[c].charges.clear();
            sims[c].runEpoch(epochEnd, isFinal);
        });

        for (std::size_t c = 0; c < config_.numCores; ++c) {
            for (const CompletionRec &r : sims[c].completions)
                foldCompletion(r, flows[r.tenant].acc, monitor);
            if (needCharges) {
                for (const WaitCharge &ch : sims[c].charges)
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
                TenantFlow &f = flows[t];
                f.active = true;
                // Arrivals before the join never happened: skip
                // them un-counted.
                while (f.nextArrival < boundary) {
                    f.nextArrival = f.arrivals.next();
                    ++f.seq;
                }
                activeNow[t] = 1;
                joinSecV[t] = boundary;
                leaveSecV[t] = 0.0;
                break;
              }
              case ChurnAction::Leave: {
                flows[t].active = false; // queue drains gracefully
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
                        if (sims[c].residents.size() < bestCount) {
                            dest = c;
                            bestCount = sims[c].residents.size();
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
                    flows[t].bucket = gate.bucket(t);
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
                    TenantFlow &f = flows[t];
                    f.active = false;
                    activeNow[t] = 0;
                    const std::size_t dropped = f.queued();
                    f.shed += dropped; // queue dropped
                    sims[tenantCore[t]].waiting -= dropped;
                    f.clearQueue();
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
        for (std::uint32_t idx : sim.residents) {
            core.tenants.push_back(tenants_[idx].name);
            core.speedFactor = placement.tenantSpeed[idx];
        }
        if (!sim.residents.empty()) {
            ++report.coresUsed;
            util_sum += core.util;
        }
        report.coreStats.push_back(std::move(core));
    }

    for (std::size_t i = 0; i < n; ++i) {
        const ServeTenant &t = tenants_[i];
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
