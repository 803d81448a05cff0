/**
 * @file
 * Behavioural tests for the fleet serving manager: tenant
 * admission validation, placement policies, bounded-queue
 * shedding, fair-share weights, registry wiring, structured error
 * paths, and the per-tenant queue of the core simulation
 * (docs/SERVING.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <deque>

#include "metrics/stat_registry.h"
#include "serve/cluster_manager.h"
#include "serve/core_sim.h"

namespace v10 {
namespace {

/** A tenant with an explicit service time (pure queueing mode). */
ServeTenant
tenant(const std::string &name, double rps, double serviceUs,
       ArrivalKind kind = ArrivalKind::Poisson)
{
    ServeTenant t;
    t.name = name;
    t.model = "BERT";
    t.arrival.kind = kind;
    t.arrival.rps = rps;
    t.serviceUsOverride = serviceUs;
    return t;
}

ServeConfig
smallConfig(std::size_t cores, double durationSec = 2.0)
{
    ServeConfig cfg;
    cfg.numCores = cores;
    cfg.durationSec = durationSec;
    cfg.seed = 21;
    return cfg;
}

TEST(ClusterManagerAdmission, RejectsBadTenants)
{
    ClusterManager manager(smallConfig(2));

    EXPECT_FALSE(manager.addTenant(tenant("", 10.0, 100.0)));

    ServeTenant unknown = tenant("x", 10.0, 100.0);
    unknown.model = "NotAModel";
    EXPECT_FALSE(manager.addTenant(unknown));

    EXPECT_FALSE(manager.addTenant(tenant("neg", -5.0, 100.0)));

    ServeTenant bad_slo = tenant("slo", 10.0, 100.0);
    bad_slo.slo.weight = 0.0;
    EXPECT_FALSE(manager.addTenant(bad_slo));
    bad_slo.slo.weight = 1.0;
    bad_slo.slo.latencyTargetUs = -1.0;
    EXPECT_FALSE(manager.addTenant(bad_slo));

    ServeTenant bad_service = tenant("svc", 10.0, 100.0);
    bad_service.serviceUsOverride = -1.0;
    EXPECT_FALSE(manager.addTenant(bad_service));

    EXPECT_TRUE(manager.addTenant(tenant("ok", 10.0, 100.0)));
    // Duplicate names are admission errors, not silent merges.
    EXPECT_FALSE(manager.addTenant(tenant("ok", 10.0, 100.0)));
    EXPECT_EQ(manager.tenantCount(), 1u);
}

TEST(ClusterManagerPlacement, ErrorsAreStructuredNotFatal)
{
    // Empty pool.
    ClusterManager empty(smallConfig(2));
    const auto no_tenants = empty.place();
    ASSERT_FALSE(no_tenants.ok());
    EXPECT_NE(no_tenants.error().message.find("no tenants"),
              std::string::npos);

    // Zero cores / bad duration are config errors caught at
    // place(), after admission succeeded.
    ClusterManager no_cores(smallConfig(0));
    ASSERT_TRUE(no_cores.addTenant(tenant("a", 10.0, 100.0)));
    EXPECT_FALSE(no_cores.place().ok());

    ServeConfig bad = smallConfig(2);
    bad.durationSec = 0.0;
    ClusterManager no_time(bad);
    ASSERT_TRUE(no_time.addTenant(tenant("a", 10.0, 100.0)));
    EXPECT_FALSE(no_time.place().ok());

    ServeConfig no_queue = smallConfig(2);
    no_queue.queueCapacity = 0;
    ClusterManager unbuffered(no_queue);
    ASSERT_TRUE(unbuffered.addTenant(tenant("a", 10.0, 100.0)));
    EXPECT_FALSE(unbuffered.place().ok());
}

TEST(ClusterManagerPlacement, RoundRobinCycles)
{
    ServeConfig cfg = smallConfig(3);
    cfg.policy = PlacementPolicy::RoundRobin;
    ClusterManager manager(cfg);
    for (int i = 0; i < 7; ++i) {
        std::string name = "t";
        name += std::to_string(i);
        ASSERT_TRUE(manager.addTenant(tenant(name, 10.0, 100.0)));
    }
    const auto placement = manager.place();
    ASSERT_TRUE(placement.ok());
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(placement.value().tenantCore[i], i % 3);
    EXPECT_EQ(placement.value().coreTenants[0].size(), 3u);
    EXPECT_EQ(placement.value().coreTenants[1].size(), 2u);
    EXPECT_EQ(placement.value().coreTenants[2].size(), 2u);
}

TEST(ClusterManagerPlacement, LeastLoadedBalancesOfferedLoad)
{
    ServeConfig cfg = smallConfig(2);
    cfg.policy = PlacementPolicy::LeastLoaded;
    ClusterManager manager(cfg);
    // Erlangs: 0.8, 0.6, 0.3, 0.1 — greedy-descending yields
    // {0.8, 0.1} and {0.6, 0.3}, not {0.8, 0.6} on one core.
    ASSERT_TRUE(manager.addTenant(tenant("heavy", 8000.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("mid", 6000.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("low", 3000.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("tiny", 1000.0, 100.0)));
    const auto placement = manager.place();
    ASSERT_TRUE(placement.ok());
    const auto &cores = placement.value().tenantCore;
    EXPECT_NE(cores[0], cores[1]); // heavy and mid split
    EXPECT_EQ(cores[1], cores[2]); // mid picks up low
    EXPECT_EQ(cores[0], cores[3]); // heavy picks up tiny
}

TEST(ClusterManagerRun, ConservationAndCompletionInvariants)
{
    ServeConfig cfg = smallConfig(2);
    cfg.queueCapacity = 8;
    ClusterManager manager(cfg);
    // One overloaded and one lightly loaded tenant.
    ASSERT_TRUE(manager.addTenant(tenant("hot", 15000.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("cool", 1000.0, 100.0)));
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    const ServingReport &report = report_or.value();

    // Every offered request is completed, shed, rejected, or still
    // in flight — admitted work drains past the horizon, nothing is
    // lost. The report carries the same identity as a self-check.
    ASSERT_TRUE(report.checkConservation());
    EXPECT_EQ(report.offered, report.completed + report.shed +
                                  report.rejected +
                                  report.inFlightAtEnd);
    for (const TenantServingStats &t : report.tenants) {
        EXPECT_TRUE(t.conserved()) << t.name;
        // No admission gate and full drain in this scenario: the
        // reject and in-flight terms are zero.
        EXPECT_EQ(t.rejected, 0u);
        EXPECT_EQ(t.inFlightAtEnd, 0u);
    }

    // The overload tenant sheds; the light one does not.
    EXPECT_GT(report.tenants[0].shed, 0u);
    EXPECT_EQ(report.tenants[1].shed, 0u);
    EXPECT_GT(report.meanCoreUtil, 0.0);
    EXPECT_LE(report.meanCoreUtil, 1.0);
    EXPECT_EQ(report.coresUsed, 2u);
}

TEST(ClusterManagerRun, WeightsShapeLatencyUnderContention)
{
    // Two statistically identical tenants share one core near
    // saturation; the weight-4 tenant must see a lower mean sojourn
    // than the weight-1 tenant under self-clocked fair queueing.
    ServeConfig cfg = smallConfig(1, 5.0);
    cfg.serviceDist = ServiceDist::Deterministic;
    cfg.queueCapacity = 256;
    ClusterManager manager(cfg);
    ServeTenant vip = tenant("vip", 4500.0, 100.0);
    vip.slo.weight = 4.0;
    ServeTenant best_effort = tenant("be", 4500.0, 100.0);
    best_effort.slo.weight = 1.0;
    ASSERT_TRUE(manager.addTenant(vip));
    ASSERT_TRUE(manager.addTenant(best_effort));
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    const ServingReport &report = report_or.value();
    ASSERT_TRUE(report.checkConservation());
    EXPECT_LT(report.tenants[0].meanUs, report.tenants[1].meanUs);
    EXPECT_LT(report.tenants[0].p99Us, report.tenants[1].p99Us);
}

TEST(ClusterManagerRun, SloTargetsCountViolationsAndGoodput)
{
    ServeConfig cfg = smallConfig(1, 5.0);
    ClusterManager manager(cfg);
    // rho = 0.5 with a tight target: some completions are late.
    ServeTenant t = tenant("slo", 5000.0, 100.0);
    t.slo.latencyTargetUs = 150.0;
    ASSERT_TRUE(manager.addTenant(t));
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    ASSERT_TRUE(report_or.value().checkConservation());
    const TenantServingStats &ts = report_or.value().tenants[0];
    EXPECT_GT(ts.sloViolations, 0u);
    EXPECT_LT(ts.sloViolations, ts.completed);
    EXPECT_NEAR(ts.goodputRps * cfg.durationSec +
                    static_cast<double>(ts.sloViolations),
                static_cast<double>(ts.completed), 1e-6);
    EXPECT_GT(ts.sloAttainment(), 0.0);
    EXPECT_LT(ts.sloAttainment(), 1.0);
}

TEST(ClusterManagerRun, ReportIsIdenticalAcrossJobs)
{
    auto run_with_jobs = [](std::size_t jobs) {
        ServeConfig cfg = smallConfig(4);
        cfg.jobs = jobs;
        ClusterManager manager(cfg);
        for (int i = 0; i < 12; ++i) {
            std::string name = "t";
            name += std::to_string(i);
            EXPECT_TRUE(manager.addTenant(
                tenant(name, 2000.0 + 100.0 * i, 120.0,
                       static_cast<ArrivalKind>(i % 3))));
        }
        auto report = manager.run();
        EXPECT_TRUE(report.ok());
        EXPECT_TRUE(report.value().checkConservation());
        return report.take();
    };
    const ServingReport serial = run_with_jobs(1);
    const ServingReport parallel = run_with_jobs(4);
    ASSERT_EQ(serial.tenants.size(), parallel.tenants.size());
    EXPECT_EQ(serial.offered, parallel.offered);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.shed, parallel.shed);
    for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
        EXPECT_EQ(serial.tenants[i].p50Us,
                  parallel.tenants[i].p50Us);
        EXPECT_EQ(serial.tenants[i].p99Us,
                  parallel.tenants[i].p99Us);
        EXPECT_EQ(serial.tenants[i].meanUs,
                  parallel.tenants[i].meanUs);
    }
}

TEST(ClusterManagerRun, RegistersServeStats)
{
    ServeConfig cfg = smallConfig(2);
    ClusterManager manager(cfg);
    ASSERT_TRUE(manager.addTenant(tenant("a", 2000.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("b", 2000.0, 100.0)));
    StatRegistry registry;
    manager.setStats(&registry);
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    const ServingReport &report = report_or.value();
    ASSERT_TRUE(report.checkConservation());
    ASSERT_TRUE(registry.has("serve.offered"));
    EXPECT_EQ(registry.value("serve.offered"),
              static_cast<double>(report.offered));
    EXPECT_EQ(registry.value("serve.completed"),
              static_cast<double>(report.completed));
    EXPECT_TRUE(registry.has("serve.goodput_rps"));
    EXPECT_TRUE(registry.has("serve.core0.util"));
    EXPECT_TRUE(registry.has("serve.core1.util"));
}

TEST(ClusterManagerAdvisor, PairsCompatibleModelsAboveThreshold)
{
    ServeConfig cfg = smallConfig(4, 0.5);
    cfg.policy = PlacementPolicy::Advisor;
    cfg.advisorProfileRequests = 4;
    ClusterManager manager(cfg);
    // The SA-bound / memory-bound mix the advisor tests rely on.
    const char *models[] = {"BERT", "DLRM", "NCF", "RsNt"};
    for (int i = 0; i < 4; ++i) {
        ServeTenant t;
        t.name = std::string(models[i]) + "#" + std::to_string(i);
        t.model = models[i];
        t.arrival.rps = 500.0;
        t.serviceUsOverride = 200.0;
        ASSERT_TRUE(manager.addTenant(t));
    }
    const auto placement_or = manager.place();
    ASSERT_TRUE(placement_or.ok());
    const ServePlacement &placement = placement_or.value();
    ASSERT_EQ(placement.tenantSpeed.size(), 4u);
    bool any_paired = false;
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GE(placement.tenantSpeed[i], 1.0);
        EXPECT_LE(placement.tenantSpeed[i], 2.0);
        if (placement.tenantSpeed[i] > 1.0)
            any_paired = true;
    }
    // BERT/DLRM-style complementary pairs clear the 1.3x threshold
    // (same ordering test_npu_cluster asserts), so at least one
    // pair must form, and its members share a core.
    EXPECT_TRUE(any_paired);
    for (const auto &residents : placement.coreTenants) {
        EXPECT_LE(residents.size(), 2u);
        if (residents.size() == 2) {
            EXPECT_GT(placement.tenantSpeed[residents[0]], 1.0);
            EXPECT_EQ(placement.tenantSpeed[residents[0]],
                      placement.tenantSpeed[residents[1]]);
        }
    }
    // The run end-to-end also works and completes requests.
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    ASSERT_TRUE(report_or.value().checkConservation());
    EXPECT_GT(report_or.value().completed, 0u);
}

TEST(TenantFlow, QueueStaysFifoAcrossCompaction)
{
    // A queue that never drains (the compacting path) and one that
    // empties often (the reset path) must both pop in push order;
    // eviction empties it.
    const ArrivalPlan plan({ArrivalSpec{}}, 1, 1.0, {});
    TenantFlow f(plan.feed(0));
    EXPECT_EQ(f.nextArrival, std::numeric_limits<double>::infinity());
    std::deque<std::uint64_t> model;
    std::uint64_t seq = 0;
    Rng rng(5);
    for (int step = 0; step < 20000; ++step) {
        // Phase 1 keeps about 40 entries queued; phase 2 drains.
        const bool grow = step < 10000 ? model.size() < 40 ||
                                             rng.uniform() < 0.5
                                       : rng.uniform() < 0.3;
        if (grow) {
            f.push(Waiting{static_cast<double>(seq), seq});
            model.push_back(seq++);
        } else if (!model.empty()) {
            const Waiting w = f.pop();
            ASSERT_EQ(w.seq, model.front()) << "step " << step;
            EXPECT_EQ(w.timeSec, static_cast<double>(model.front()));
            model.pop_front();
        }
        ASSERT_EQ(f.queued(), model.size()) << "step " << step;
    }
    f.clearQueue();
    EXPECT_EQ(f.queued(), 0u);
}

/** Three tenants at 800 req/s, 400 us service, all resident on one
 * core; @p splitTenant folds serially (its completions buffered, as
 * when another core is still serving it). */
struct DrainRig
{
    ArrivalPlan plan;
    std::vector<TenantFlow> flows;
    SloMonitor monitor{3, 1.0};
    CoreSim sim;

    explicit DrainRig(std::uint32_t splitTenant)
        : plan(std::vector<ArrivalSpec>(3, ArrivalSpec{
                   ArrivalKind::Poisson, 800.0}),
               3, 1.0, {})
    {
        for (std::uint32_t t = 0; t < 3; ++t) {
            TenantFlow &f = flows.emplace_back(plan.feed(t));
            f.tenant = t;
            f.serviceMeanSec = 400e-6;
            f.foldSerially = t == splitTenant;
        }
        sim.rng = Rng(Rng::deriveStream(3, 99));
        sim.dist = ServiceDist::Exponential;
        sim.endSec = 1.0;
        sim.flowTable = &flows;
        sim.monitor = &monitor;
        for (std::uint32_t t = 0; t < 3; ++t)
            sim.addResident(t);
    }
};

TEST(CoreSim, FinalEpochTakesInPlaceResidentsLatencyFigures)
{
    // Tenant 2 folds serially; an earlier epoch left one completion
    // in its histogram.
    DrainRig rig(2);
    rig.flows[2].acc.latencyUs.add(123.0);
    rig.sim.runEpoch(1.0, true);
    // The buffered completions are tenant 2's, and the drain left
    // its results alone for the manager's serial fold.
    ASSERT_FALSE(rig.sim.completions.empty());
    for (const CompletionRec &r : rig.sim.completions)
        EXPECT_EQ(r.tenant, 2u);
    const TenantAccum &split = rig.flows[2].acc;
    EXPECT_EQ(split.latencyUs.count(), 1u);
    EXPECT_EQ(split.latency.p99Us, 0.0);
    EXPECT_EQ(split.latency.maxUs, 0.0);

    // The same run with every tenant buffered: folding tenants 0 and
    // 1 serially rebuilds the histograms the drain read.
    DrainRig ref(3);
    for (TenantFlow &f : ref.flows)
        f.foldSerially = true;
    ref.sim.runEpoch(1.0, true);
    for (const CompletionRec &r : ref.sim.completions)
        foldCompletion(r, ref.flows[r.tenant].acc, ref.monitor);
    for (std::uint32_t t = 0; t < 2; ++t) {
        const TenantAccum &got = rig.flows[t].acc;
        TenantAccum &want = ref.flows[t].acc;
        ASSERT_GT(want.latencyUs.count(), 100u) << t;
        EXPECT_EQ(got.completed, want.completed) << t;
        want.takeLatencyFigures();
        EXPECT_EQ(got.latencyUs.count(), 0u) << t;
        EXPECT_EQ(want.latencyUs.count(), 0u) << t;
        EXPECT_GT(got.latency.p50Us, 0.0) << t;
        EXPECT_EQ(got.latency.meanUs, want.latency.meanUs) << t;
        EXPECT_EQ(got.latency.p50Us, want.latency.p50Us) << t;
        EXPECT_EQ(got.latency.p99Us, want.latency.p99Us) << t;
        EXPECT_EQ(got.latency.p999Us, want.latency.p999Us) << t;
        EXPECT_EQ(got.latency.maxUs, want.latency.maxUs) << t;
    }
}

TEST(ParseSloSpec, GrammarAndErrors)
{
    const auto relative = parseSloSpec("25x");
    ASSERT_TRUE(relative.ok());
    ASSERT_EQ(relative.value().size(), 1u);
    EXPECT_TRUE(relative.value()[0].relative);
    EXPECT_DOUBLE_EQ(relative.value()[0].value, 25.0);
    EXPECT_DOUBLE_EQ(relative.value()[0].weight, 1.0);

    const auto mixed = parseSloSpec("25x:2,5000:1,50x");
    ASSERT_TRUE(mixed.ok());
    ASSERT_EQ(mixed.value().size(), 3u);
    EXPECT_TRUE(mixed.value()[0].relative);
    EXPECT_DOUBLE_EQ(mixed.value()[0].weight, 2.0);
    EXPECT_FALSE(mixed.value()[1].relative);
    EXPECT_DOUBLE_EQ(mixed.value()[1].value, 5000.0);
    EXPECT_TRUE(mixed.value()[2].relative);

    EXPECT_FALSE(parseSloSpec("").ok());
    EXPECT_FALSE(parseSloSpec("abc").ok());
    EXPECT_FALSE(parseSloSpec("25x:").ok());
    EXPECT_FALSE(parseSloSpec("25x:-1").ok());
    EXPECT_FALSE(parseSloSpec("-5x").ok());
    EXPECT_FALSE(parseSloSpec("25x,,50x").ok());
}

TEST(ServeEnums, NamesRoundTrip)
{
    for (PlacementPolicy p :
         {PlacementPolicy::RoundRobin, PlacementPolicy::LeastLoaded,
          PlacementPolicy::Advisor}) {
        const auto parsed =
            tryPlacementPolicyFromName(placementPolicyName(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_FALSE(tryPlacementPolicyFromName("random").has_value());

    for (ServiceDist d :
         {ServiceDist::Deterministic, ServiceDist::Exponential,
          ServiceDist::Lognormal}) {
        const auto parsed =
            tryServiceDistFromName(serviceDistName(d));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, d);
    }
    EXPECT_FALSE(tryServiceDistFromName("uniform").has_value());
}

} // namespace
} // namespace v10
