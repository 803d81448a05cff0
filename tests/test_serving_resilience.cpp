/**
 * @file
 * Tests for the serve-layer resilience loop (docs/RESILIENCE.md):
 * churn-plan and antagonist-plan grammars, the token-bucket
 * admission gate and its AIMD adaptation, the quarantine strike
 * ladder with hysteresis, churn lifecycle effects inside a run, and
 * the end-to-end chaos acceptance scenario — 73 tenants with
 * join/leave/migrate churn, a flood and an hbm-hog antagonist,
 * fault-driven arrival bursts, and adaptive admission — asserting
 * byte-identical output across --jobs, correct perpetrator
 * attribution, a bounded blast radius for well-behaved tenants, and
 * visible admission adaptation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "metrics/stat_registry.h"
#include "serve/admission.h"
#include "serve/antagonist.h"
#include "serve/churn_plan.h"
#include "serve/cluster_manager.h"
#include "sim/fault_plan.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "trace/slo_monitor.h"
#include "workload/model_zoo.h"

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

/** Render the report body to a string for byte-identity checks. */
std::string
reportJson(const ServingReport &report)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeServingReportJson(w, report);
    return os.str();
}

/** The report's quarantine events for one tenant, in order. */
std::vector<QuarantineRecord>
eventsFor(const ServingReport &report, const std::string &name)
{
    std::vector<QuarantineRecord> out;
    for (const QuarantineRecord &rec : report.quarantineEvents)
        if (rec.tenant == name)
            out.push_back(rec);
    return out;
}

// ---------------------------------------------------------------
// Plan grammars
// ---------------------------------------------------------------

TEST(ChurnPlanGrammar, ParsesSortsAndRoundTrips)
{
    const auto plan_or = ChurnPlan::parse(
        "leave:tenant=RtNt#41:at=1.5,"
        "join:tenant=RNRS#40:at=0.5,"
        "migrate:tenant=SMask#42:at=1.0:core=3");
    ASSERT_TRUE(plan_or.ok());
    const ChurnPlan &plan = plan_or.value();
    ASSERT_EQ(plan.events().size(), 3u);
    // add() keeps the schedule sorted by time regardless of spec
    // order, so the run's churn cursor can walk it linearly.
    EXPECT_EQ(plan.events()[0].action, ChurnAction::Join);
    EXPECT_EQ(plan.events()[0].tenant, "RNRS#40");
    EXPECT_DOUBLE_EQ(plan.events()[0].atSec, 0.5);
    EXPECT_EQ(plan.events()[0].core, -1);
    EXPECT_EQ(plan.events()[1].action, ChurnAction::Migrate);
    EXPECT_EQ(plan.events()[1].core, 3);
    EXPECT_EQ(plan.events()[2].action, ChurnAction::Leave);
    EXPECT_EQ(plan.events()[2].spec(), "leave:tenant=RtNt#41:at=1.5");

    EXPECT_TRUE(plan.check(2.0));
    // Events must lie strictly inside (0, duration).
    EXPECT_FALSE(plan.check(1.5));
    EXPECT_FALSE(plan.check(0.25));

    // Round-trip through the JSON plan form.
    const auto json_or = ChurnPlan::fromJson(
        R"({"churn":[{"action":"join","tenant":"a","at":0.25},)"
        R"({"action":"migrate","tenant":"b","at":0.5,"core":2}]})",
        "test");
    ASSERT_TRUE(json_or.ok());
    ASSERT_EQ(json_or.value().events().size(), 2u);
    EXPECT_EQ(json_or.value().summary(),
              "join:tenant=a:at=0.25,migrate:tenant=b:at=0.5:core=2");
}

TEST(ChurnPlanGrammar, RejectsMalformedSpecs)
{
    EXPECT_FALSE(ChurnPlan::parse("evaporate:tenant=a:at=1").ok());
    EXPECT_FALSE(ChurnPlan::parse("join:at=1").ok()); // no tenant
    EXPECT_FALSE(ChurnPlan::parse("join:tenant=a").ok()); // no at
    EXPECT_FALSE(ChurnPlan::parse("join:tenant=a:at=-1").ok());
    EXPECT_FALSE(ChurnPlan::parse("join:tenant=a:at=abc").ok());
    // core= is a migrate-only key.
    EXPECT_FALSE(ChurnPlan::parse("join:tenant=a:at=1:core=2").ok());
    EXPECT_FALSE(
        ChurnPlan::parse("migrate:tenant=a:at=1:core=-2").ok());
    EXPECT_FALSE(ChurnPlan::parse("join:tenant=a:at=1:color=2").ok());
    EXPECT_FALSE(ChurnPlan::fromJson("not json", "test").ok());
    EXPECT_FALSE(ChurnPlan::fromJson(R"({"churn":{}})", "t").ok());
    EXPECT_FALSE(
        ChurnPlan::fromJson(R"({"churn":[{"action":"join"}]})", "t")
            .ok());
}

TEST(AntagonistPlanGrammar, ParsesDefaultsAndWindows)
{
    const auto plan_or = AntagonistPlan::parse(
        "flood:tenant=0:rate=0.8:mag=8:after=0.6:until=1.1,"
        "hbm-hog:tenant=11:mag=3.5,thrash:tenant=2");
    ASSERT_TRUE(plan_or.ok());
    const auto &profiles = plan_or.value().profiles();
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_EQ(profiles[0].kind, AntagonistKind::Flood);
    EXPECT_EQ(profiles[0].tenant, 0);
    EXPECT_DOUBLE_EQ(profiles[0].rate, 0.8);
    EXPECT_DOUBLE_EQ(profiles[0].effectiveMagnitude(), 8.0);
    EXPECT_FALSE(profiles[0].activeAt(0.59)); // before the window
    EXPECT_TRUE(profiles[0].activeAt(0.6));
    EXPECT_FALSE(profiles[0].activeAt(1.1)); // window is half-open
    EXPECT_DOUBLE_EQ(profiles[1].effectiveMagnitude(), 3.5);
    EXPECT_TRUE(profiles[1].activeAt(1.9)); // until=0 = run end
    // Unset magnitudes fall back to the kind default.
    EXPECT_EQ(profiles[2].kind, AntagonistKind::Thrash);
    EXPECT_DOUBLE_EQ(profiles[2].effectiveMagnitude(), 0.5);

    // check() binds tenant indices and windows to the scenario.
    EXPECT_TRUE(plan_or.value().check(12, 2.0));
    EXPECT_FALSE(plan_or.value().check(11, 2.0)); // tenant 11
    EXPECT_FALSE(plan_or.value().check(12, 0.5)); // after >= dur
}

TEST(AntagonistPlanGrammar, RejectsMalformedSpecs)
{
    EXPECT_FALSE(AntagonistPlan::parse("gremlin:tenant=0").ok());
    EXPECT_FALSE(AntagonistPlan::parse("flood").ok()); // no tenant
    EXPECT_FALSE(AntagonistPlan::parse("flood:tenant=-1").ok());
    EXPECT_FALSE(AntagonistPlan::parse("flood:tenant=0:rate=1.5").ok());
    EXPECT_FALSE(AntagonistPlan::parse("flood:tenant=0:mag=-1").ok());
    // Hog inflation below 1 would *speed up* the hog.
    EXPECT_FALSE(AntagonistPlan::parse("hbm-hog:tenant=0:mag=0.5").ok());
    EXPECT_FALSE(AntagonistPlan::parse(
                     "flood:tenant=0:after=1:until=0.5")
                     .ok());
    EXPECT_FALSE(AntagonistPlan::parse("flood:tenant=0:vibe=bad").ok());
    EXPECT_FALSE(AntagonistPlan::fromJson("[]", "t").ok());
    EXPECT_FALSE(
        AntagonistPlan::fromJson(R"({"antagonists":[{}]})", "t").ok());
}

// ---------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------

TEST(TokenBucket, RefillsFromSimTimeOnly)
{
    TokenBucket bucket(10.0, 1.0, 0.0); // capacity 10, starts full
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(bucket.tryAdmit(0.0)) << "admit " << i;
    EXPECT_FALSE(bucket.tryAdmit(0.0)); // drained
    // Half a second refills rate/2 = 5 tokens, no more.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(bucket.tryAdmit(0.5)) << "refill admit " << i;
    EXPECT_FALSE(bucket.tryAdmit(0.5));
    // Time never flows backwards into the bucket.
    EXPECT_FALSE(bucket.tryAdmit(0.25));
    // A long idle stretch caps at the burst capacity.
    bucket.setRate(10.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(bucket.tryAdmit(100.0)) << "cap admit " << i;
    EXPECT_FALSE(bucket.tryAdmit(100.0));
}

TEST(AdmissionGate, AimdAdaptsWithinFloorAndBase)
{
    AdmissionPolicy policy;
    policy.enabled = true;
    policy.headroom = 1.25;
    policy.decrease = 0.5;
    policy.increase = 0.1;
    policy.minRateFrac = 0.05;
    ASSERT_TRUE(policy.check());
    AdmissionGate gate(1, policy);
    gate.configure(0, 100.0);
    EXPECT_DOUBLE_EQ(gate.baseRps(0), 125.0);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0);
    ASSERT_NE(gate.bucket(0), nullptr); // enabled gate always gates

    // Multiplicative decrease halves the rate per alerted epoch and
    // clamps at the floor instead of starving the tenant.
    EXPECT_EQ(gate.adapt(0, true), AdmissionGate::Change::Decreased);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 62.5);
    for (int i = 0; i < 10; ++i)
        gate.adapt(0, true);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0 * 0.05);
    EXPECT_EQ(gate.adapt(0, true), AdmissionGate::Change::Held);
    EXPECT_GT(gate.decreases(0), 0u);

    // Additive recovery climbs back to base, then holds.
    EXPECT_EQ(gate.adapt(0, false), AdmissionGate::Change::Increased);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0 * 0.05 + 12.5);
    for (int i = 0; i < 20; ++i)
        gate.adapt(0, false);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0);
    EXPECT_EQ(gate.adapt(0, false), AdmissionGate::Change::Held);
    EXPECT_GT(gate.increases(0), 0u);

    // Quarantine caps compose with the AIMD value; eviction zeroes.
    gate.throttle(0, 0.25);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0 * 0.25);
    gate.release(0);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 125.0);
    gate.block(0);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 0.0);
    EXPECT_EQ(gate.adapt(0, false), AdmissionGate::Change::Held);
    // A zero-rate bucket clamps to its one-token floor capacity, so
    // at most one residual admit leaks out, then nothing — a rate
    // of 0 never refills.
    (void)gate.bucket(0)->tryAdmit(1000.0);
    EXPECT_FALSE(gate.bucket(0)->tryAdmit(1000.0));
    EXPECT_FALSE(gate.bucket(0)->tryAdmit(2000.0));
}

TEST(AdmissionGate, DisabledGateOnlyMaterializesForQuarantine)
{
    AdmissionGate gate(2, AdmissionPolicy{}); // disabled
    gate.configure(0, 100.0);
    gate.configure(1, 100.0);
    // No gate at all on the hot path while everyone is healthy...
    EXPECT_EQ(gate.bucket(0), nullptr);
    // ...but a quarantine throttle (or eviction) forces the bucket
    // into the arrival path even without adaptive admission. The
    // default 1.25 headroom still shapes the base rate.
    gate.throttle(0, 0.5);
    EXPECT_NE(gate.bucket(0), nullptr);
    EXPECT_DOUBLE_EQ(gate.rateRps(0), 100.0 * 1.25 * 0.5);
    gate.release(0);
    EXPECT_EQ(gate.bucket(0), nullptr);
    gate.block(1);
    EXPECT_NE(gate.bucket(1), nullptr);
    (void)gate.bucket(1)->tryAdmit(5.0); // residual floor token
    EXPECT_FALSE(gate.bucket(1)->tryAdmit(5.0));
    EXPECT_FALSE(gate.bucket(1)->tryAdmit(50.0));
}

// ---------------------------------------------------------------
// Quarantine controller
// ---------------------------------------------------------------

TEST(QuarantineController, LadderEscalatesAndRecoversWithHysteresis)
{
    DetectorPolicy policy;
    policy.hiScore = 1.0;
    policy.loScore = 0.5;
    ASSERT_TRUE(policy.check());
    QuarantineLadder ladder;
    ladder.throttleStrikes = 1;
    ladder.isolateStrikes = 2;
    ladder.evictStrikes = 99;
    ladder.recoveryEpochs = 2;
    QuarantineController ctl(1, policy, ladder);
    QuarantineController::Transition tr;

    // First strike trips the throttle rung.
    ASSERT_TRUE(ctl.observe(0, 1.5, &tr));
    EXPECT_EQ(tr.from, QuarantineStage::Healthy);
    EXPECT_EQ(tr.to, QuarantineStage::Throttled);
    EXPECT_EQ(tr.strikes, 1u);
    EXPECT_DOUBLE_EQ(tr.score, 1.5);

    // Scores inside (lo, hi) neither strike nor count as clean: the
    // tenant holds its rung no matter how long the gray zone lasts.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(ctl.observe(0, 0.75, &tr));
    EXPECT_EQ(ctl.stage(0), QuarantineStage::Throttled);

    // A second strike escalates to isolation.
    ASSERT_TRUE(ctl.observe(0, 2.0, &tr));
    EXPECT_EQ(tr.to, QuarantineStage::Isolated);

    // recoveryEpochs clean observations step one rung down at a
    // time, resetting strikes to the new rung's floor.
    EXPECT_FALSE(ctl.observe(0, 0.1, &tr));
    ASSERT_TRUE(ctl.observe(0, 0.1, &tr));
    EXPECT_EQ(tr.from, QuarantineStage::Isolated);
    EXPECT_EQ(tr.to, QuarantineStage::Throttled);
    EXPECT_EQ(ctl.strikes(0), ladder.throttleStrikes);
    EXPECT_FALSE(ctl.observe(0, 0.1, &tr));
    ASSERT_TRUE(ctl.observe(0, 0.1, &tr));
    EXPECT_EQ(tr.to, QuarantineStage::Healthy);
    EXPECT_EQ(ctl.strikes(0), 0u);

    // Peak score tracks the lifetime maximum across all of it.
    EXPECT_DOUBLE_EQ(ctl.peakScore(0), 2.0);
}

TEST(QuarantineController, EvictionIsTerminal)
{
    DetectorPolicy policy;
    policy.hiScore = 1.0;
    policy.loScore = 0.5;
    QuarantineLadder ladder;
    ladder.throttleStrikes = 1;
    ladder.isolateStrikes = 2;
    ladder.evictStrikes = 3;
    ladder.recoveryEpochs = 1;
    QuarantineController ctl(1, policy, ladder);
    QuarantineController::Transition tr;
    ASSERT_TRUE(ctl.observe(0, 2.0, &tr));
    ASSERT_TRUE(ctl.observe(0, 2.0, &tr));
    ASSERT_TRUE(ctl.observe(0, 2.0, &tr));
    EXPECT_EQ(tr.to, QuarantineStage::Evicted);
    // No amount of clean behaviour resurrects an evicted tenant.
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(ctl.observe(0, 0.0, &tr));
    EXPECT_EQ(ctl.stage(0), QuarantineStage::Evicted);
}

// ---------------------------------------------------------------
// Churn lifecycle inside a run
// ---------------------------------------------------------------

TEST(ServeChurn, JoinLeaveMigrateShapeTheRun)
{
    auto run_with_jobs = [](std::size_t jobs) {
        ServeConfig cfg = smallConfig(2);
        cfg.policy = PlacementPolicy::RoundRobin;
        cfg.serviceDist = ServiceDist::Deterministic;
        cfg.jobs = jobs;
        auto plan = ChurnPlan::parse(
            "join:tenant=t1:at=0.4,leave:tenant=t2:at=1.2,"
            "migrate:tenant=t3:at=0.8:core=0");
        EXPECT_TRUE(plan.ok());
        cfg.churn = plan.take();
        ClusterManager manager(cfg);
        for (int i = 0; i < 4; ++i) {
            std::string name = "t";
            name += std::to_string(i);
            EXPECT_TRUE(
                manager.addTenant(tenant(name, 300.0, 400.0)));
        }
        auto report = manager.run();
        EXPECT_TRUE(report.ok());
        return report.take();
    };
    const ServingReport report = run_with_jobs(1);
    ASSERT_TRUE(report.checkConservation());
    for (const TenantServingStats &t : report.tenants)
        EXPECT_TRUE(t.conserved()) << t.name;

    // Churn forces the epoch loop: one control step per SLO bucket.
    EXPECT_EQ(report.controlEpochs, SloMonitor::kBuckets);
    const double epochSec = 2.0 / SloMonitor::kBuckets;

    // Events snap to the next epoch boundary, in time order.
    ASSERT_EQ(report.churnEvents.size(), 3u);
    EXPECT_EQ(report.churnEvents[0].action, "join");
    EXPECT_EQ(report.churnEvents[1].action, "migrate");
    EXPECT_EQ(report.churnEvents[2].action, "leave");
    EXPECT_EQ(report.churnEvents[1].toCore, 0u);

    // The joiner only offers load inside its activity window.
    // Churn times snap to the nearest epoch boundary.
    const TenantServingStats &joiner = report.tenants[1];
    EXPECT_GE(joiner.joinSec, 0.4 - epochSec);
    EXPECT_LE(joiner.joinSec, 0.4 + epochSec);
    EXPECT_GT(joiner.offered, 0u);
    EXPECT_LT(static_cast<double>(joiner.offered),
              0.9 * static_cast<double>(report.tenants[0].offered));

    // The leaver drains its queue and stops offering at leave time.
    const TenantServingStats &leaver = report.tenants[2];
    EXPECT_GE(leaver.leaveSec, 1.2 - epochSec);
    EXPECT_LE(leaver.leaveSec, 1.2 + epochSec);
    EXPECT_LT(static_cast<double>(leaver.offered),
              0.75 * static_cast<double>(report.tenants[0].offered));
    EXPECT_EQ(leaver.inFlightAtEnd, 0u);

    // The migrant lands on its requested core, with its queue.
    const TenantServingStats &migrant = report.tenants[3];
    EXPECT_EQ(migrant.migrations, 1u);
    EXPECT_EQ(migrant.core, 0u);

    // Lifetimes of tenants without churn stay at the defaults.
    EXPECT_DOUBLE_EQ(report.tenants[0].joinSec, 0.0);
    EXPECT_DOUBLE_EQ(report.tenants[0].leaveSec, 0.0);

    // The whole churned run is byte-identical across --jobs.
    EXPECT_EQ(reportJson(report), reportJson(run_with_jobs(4)));
}

TEST(ServeChurn, PlanValidationFailsStructured)
{
    auto run_with_plan = [](const std::string &spec) {
        ServeConfig cfg = smallConfig(2);
        auto plan = ChurnPlan::parse(spec);
        EXPECT_TRUE(plan.ok()) << spec;
        cfg.churn = plan.take();
        ClusterManager manager(cfg);
        EXPECT_TRUE(manager.addTenant(tenant("a", 100.0, 100.0)));
        EXPECT_TRUE(manager.addTenant(tenant("b", 100.0, 100.0)));
        return manager.run();
    };
    // Unknown tenant names, double joins, acting on inactive
    // tenants, and out-of-range cores are run() errors, not crashes.
    // (A tenant whose *first* event is a join starts dormant, so a
    // lone join is legal; joining twice is not.)
    EXPECT_FALSE(run_with_plan("leave:tenant=nope:at=1").ok());
    EXPECT_FALSE(
        run_with_plan("join:tenant=a:at=0.5,join:tenant=a:at=1")
            .ok());
    EXPECT_FALSE(run_with_plan("leave:tenant=a:at=0.5,"
                               "migrate:tenant=a:at=1:core=1")
                     .ok());
    EXPECT_FALSE(run_with_plan("migrate:tenant=a:at=1:core=7").ok());
    EXPECT_FALSE(run_with_plan("leave:tenant=a:at=5").ok());
}

TEST(ChurnPlanResolve, BindsTenantsInPlanOrderAndStartsJoinersDormant)
{
    // No fleet: the plan is resolved against a list of tenant names.
    auto plan = ChurnPlan::parse("migrate:tenant=c:at=0.7,"
                                 "join:tenant=b:at=0.2,"
                                 "leave:tenant=b:at=0.9,"
                                 "leave:tenant=a:at=0.5,"
                                 "join:tenant=a:at=0.8");
    ASSERT_TRUE(plan.ok());
    const auto resolved =
        plan.value().resolve({"a", "b", "c", "d"}, /*numCores=*/2);
    ASSERT_TRUE(resolved.ok()) << resolved.error().toString();
    // One index per event, in the plan's (time-sorted) order.
    EXPECT_EQ(resolved.value().tenant,
              (std::vector<std::size_t>{1, 0, 2, 0, 1}));
    // b's first event is a join, so b starts dormant; a leaves and
    // rejoins, so it starts active, like the untouched c and d.
    EXPECT_EQ(resolved.value().startsDormant,
              (std::vector<bool>{false, true, false, false}));
}

TEST(ChurnPlanResolve, RejectsEachBadTransitionStructured)
{
    const std::vector<std::string> tenants{"a", "b"};
    auto resolveError = [&](const std::string &spec) {
        auto plan = ChurnPlan::parse(spec);
        EXPECT_TRUE(plan.ok()) << spec;
        const auto resolved =
            plan.value().resolve(tenants, /*numCores=*/2);
        EXPECT_FALSE(resolved.ok()) << spec;
        return resolved.ok() ? ParseError{} : resolved.error();
    };
    ParseError e = resolveError("leave:tenant=nope:at=1");
    EXPECT_EQ(e.message, "churn: unknown tenant");
    EXPECT_EQ(e.token, "nope");
    e = resolveError("join:tenant=a:at=0.5,join:tenant=a:at=1");
    EXPECT_EQ(e.message, "churn: tenant already joined");
    EXPECT_EQ(e.token, "join:tenant=a:at=1");
    e = resolveError(
        "leave:tenant=a:at=0.5,migrate:tenant=a:at=1:core=1");
    EXPECT_EQ(e.message, "churn: tenant is not active");
    EXPECT_EQ(e.token, "migrate:tenant=a:at=1:core=1");
    e = resolveError("migrate:tenant=b:at=1:core=2");
    EXPECT_EQ(e.message, "churn: migrate core out of range");
    EXPECT_EQ(e.token, "migrate:tenant=b:at=1:core=2");
    // The last legal core and a pick-for-me migrate both resolve.
    auto ok = ChurnPlan::parse("migrate:tenant=b:at=1:core=1,"
                               "migrate:tenant=a:at=1");
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value().resolve(tenants, 2).ok());
}

// ---------------------------------------------------------------
// Quarantine inside a run
// ---------------------------------------------------------------

/** Two-core deterministic fleet with one hbm-hog antagonist. */
ServeConfig
hogConfig(double rps, double mag, double untilSec,
          QuarantineLadder ladder)
{
    ServeConfig cfg = smallConfig(2);
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.serviceDist = ServiceDist::Deterministic;
    cfg.seed = 1;
    auto plan = AntagonistPlan::parse(
        "hbm-hog:tenant=2:mag=" + std::to_string(mag) +
        ":after=0.2:until=" + std::to_string(untilSec));
    EXPECT_TRUE(plan.ok());
    cfg.antagonists = plan.take();
    cfg.detector.hiScore = 0.5;
    cfg.detector.loScore = 0.2;
    cfg.ladder = ladder;
    // rps is applied by the caller per tenant.
    (void)rps;
    return cfg;
}

TEST(ServeQuarantine, LadderEscalatesToEviction)
{
    QuarantineLadder ladder;
    ladder.throttleStrikes = 1;
    ladder.isolateStrikes = 2;
    ladder.evictStrikes = 3;
    ladder.throttleFactor = 1.0; // keep hogging through the rungs
    ladder.recoveryEpochs = 50;
    ServeConfig cfg = hogConfig(600.0, 8.0, 1.8, ladder);
    ClusterManager manager(cfg);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(manager.addTenant(
            tenant("t" + std::to_string(i), 600.0, 400.0)));
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    const ServingReport &report = report_or.value();
    ASSERT_TRUE(report.checkConservation());

    // The hog climbs the whole ladder: throttled, isolated, evicted
    // — and nobody else is quarantined along the way.
    ASSERT_EQ(report.quarantineEvents.size(), 3u);
    const char *stages[] = {"throttled", "isolated", "evicted"};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(report.quarantineEvents[i].tenant, "t2");
        EXPECT_EQ(report.quarantineEvents[i].to, stages[i]);
        EXPECT_GT(report.quarantineEvents[i].score,
                  cfg.detector.hiScore);
    }
    const TenantServingStats &hog = report.tenants[2];
    EXPECT_EQ(hog.quarantineStage, "evicted");
    EXPECT_EQ(hog.strikes, 3u);
    EXPECT_GT(hog.peakAntagonistScore, cfg.detector.hiScore);
    // Eviction drops the hog's queue and gates future arrivals, so
    // post-eviction offers surface as rejections, and conservation
    // still balances through the reject/shed paths.
    EXPECT_GT(hog.rejected + hog.shed, 0u);
    EXPECT_TRUE(hog.conserved());
    for (const TenantServingStats &t : report.tenants)
        if (t.name != "t2") {
            EXPECT_EQ(t.quarantineStage, "healthy") << t.name;
        }
}

TEST(ServeQuarantine, RepairsAfterDriftEnds)
{
    QuarantineLadder ladder;
    ladder.throttleStrikes = 1;
    ladder.isolateStrikes = 2;
    ladder.evictStrikes = 99;
    ladder.throttleFactor = 1.0;
    ladder.recoveryEpochs = 4;
    ServeConfig cfg = hogConfig(300.0, 12.0, 0.6, ladder);
    ClusterManager manager(cfg);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(manager.addTenant(
            tenant("t" + std::to_string(i), 300.0, 400.0)));
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    const ServingReport &report = report_or.value();
    ASSERT_TRUE(report.checkConservation());

    // Misbehaviour inside the window escalates to isolation; once
    // the drift ends, sustained clean epochs walk the tenant back
    // down rung by rung until it is healthy again with no strikes.
    const auto events = eventsFor(report, "t2");
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].to, "throttled");
    EXPECT_EQ(events[1].to, "isolated");
    EXPECT_EQ(events[2].from, "isolated");
    EXPECT_EQ(events[2].to, "throttled");
    EXPECT_EQ(events[3].to, "healthy");
    EXPECT_EQ(report.quarantineEvents.size(), events.size());

    const TenantServingStats &hog = report.tenants[2];
    EXPECT_EQ(hog.quarantineStage, "healthy");
    EXPECT_EQ(hog.strikes, 0u);
    // De-escalation from isolation re-pairs the tenant onto a core
    // again (here: back to its round-robin home).
    EXPECT_EQ(hog.core, 0u);
}

// ---------------------------------------------------------------
// The chaos acceptance scenario
// ---------------------------------------------------------------

/**
 * The locked end-to-end scenario (mirrors the CI chaos smoke): 73
 * tenants on 25 cores with adaptive admission, a mid-run flood and
 * hbm-hog antagonist, fault-driven arrival bursts, and a
 * join/leave/migrate churn schedule. Tenant 0 floods (admission's
 * problem: rate abuse), tenant 11 hogs HBM (quarantine's problem:
 * service abuse that no arrival gate can see).
 */
ServeConfig
chaosConfig()
{
    ServeConfig cfg;
    cfg.numCores = 25;
    cfg.durationSec = 2.0;
    cfg.seed = 1;
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.serviceDist = ServiceDist::Exponential;

    cfg.admission.enabled = true;
    cfg.admission.headroom = 4.0;
    cfg.detector.hiScore = 0.7;
    cfg.detector.loScore = 0.3;
    cfg.ladder.throttleStrikes = 1;
    cfg.ladder.isolateStrikes = 8;
    cfg.ladder.evictStrikes = 16;
    cfg.ladder.throttleFactor = 0.2;
    cfg.ladder.recoveryEpochs = 16;

    auto churn = ChurnPlan::parse(
        "join:tenant=RNRS#40:at=0.5,leave:tenant=RtNt#41:at=1.5,"
        "migrate:tenant=SMask#42:at=1.0:core=23");
    EXPECT_TRUE(churn.ok());
    cfg.churn = churn.take();

    auto antagonists = AntagonistPlan::parse(
        "flood:tenant=0:rate=0.8:mag=8:after=0.6:until=1.1,"
        "hbm-hog:tenant=11:mag=3.5:after=0.6:until=0.8");
    EXPECT_TRUE(antagonists.ok());
    cfg.antagonists = antagonists.take();
    return cfg;
}

/** Add the 73-tenant pool: models cycle the zoo, SLO 25x. */
void
addChaosTenants(ClusterManager &manager)
{
    const auto &zoo = modelZoo();
    for (int i = 0; i < 73; ++i) {
        ServeTenant t;
        t.model = zoo[i % zoo.size()].abbrev;
        t.name = t.model + "#" + std::to_string(i);
        t.serviceUsOverride = 400.0;
        t.arrival.kind = ArrivalKind::Poisson;
        t.arrival.rps = 417.0;
        t.slo.latencyTargetUs = 25.0 * t.serviceUsOverride;
        const std::string name = t.name;
        ASSERT_TRUE(manager.addTenant(std::move(t))) << name;
    }
}

struct ChaosRun
{
    ServingReport report;
    std::string reportJson;
    std::string traceJsonl;
};

ChaosRun
runChaos(std::size_t jobs, bool withAntagonists)
{
    ServeConfig cfg = chaosConfig();
    cfg.jobs = jobs;
    if (!withAntagonists)
        cfg.antagonists = AntagonistPlan{};
    // Fault-driven arrival bursts ride along in both variants so
    // the baseline differs from the chaos run only by the
    // antagonists themselves.
    auto faults =
        FaultPlan::parse("flood:rate=0.5:mag=3:tenant=30:count=4");
    EXPECT_TRUE(faults.ok());
    const FaultPlan plan = faults.take();
    cfg.faults = &plan;

    ClusterManager manager(cfg);
    addChaosTenants(manager);
    RequestTracer tracer(16);
    manager.setRequestTracer(&tracer);
    auto report_or = manager.run();
    EXPECT_TRUE(report_or.ok());
    ChaosRun out;
    out.report = report_or.take();
    out.reportJson = reportJson(out.report);
    std::ostringstream spans;
    tracer.writeJsonl(spans);
    out.traceJsonl = spans.str();
    return out;
}

TEST(ServeChaosScenario, EndToEndResilienceAcceptance)
{
    const ChaosRun serial = runChaos(1, true);
    const ServingReport &report = serial.report;
    ASSERT_EQ(report.tenants.size(), 73u);
    EXPECT_EQ(report.controlEpochs, SloMonitor::kBuckets);
    EXPECT_TRUE(report.admissionEnabled);

    // (0) Nothing leaks through the churn + quarantine + fault mix:
    // every tenant and the fleet sums satisfy conservation.
    ASSERT_TRUE(report.checkConservation());
    for (const TenantServingStats &t : report.tenants)
        EXPECT_TRUE(t.conserved()) << t.name;
    EXPECT_EQ(report.offered, report.completed + report.shed +
                                  report.rejected +
                                  report.inFlightAtEnd);

    // (a) Byte-identical stats and trace, serial vs parallel.
    const ChaosRun parallel = runChaos(8, true);
    EXPECT_EQ(serial.reportJson, parallel.reportJson);
    ASSERT_FALSE(serial.traceJsonl.empty());
    EXPECT_EQ(serial.traceJsonl, parallel.traceJsonl);

    // (b) The detector names exactly the perpetrator: the hbm-hog
    // is quarantined on the attribution score and nobody else ever
    // leaves healthy. (The flooder is the admission gate's catch —
    // its rate abuse is strangled before queues build a hog-sized
    // attribution signal.)
    ASSERT_FALSE(report.quarantineEvents.empty());
    for (const QuarantineRecord &rec : report.quarantineEvents)
        EXPECT_EQ(rec.tenant, "BERT#11") << rec.to;
    const QuarantineRecord &first = report.quarantineEvents.front();
    EXPECT_EQ(first.from, "healthy");
    EXPECT_EQ(first.to, "throttled");
    EXPECT_GT(first.score, 0.7);
    EXPECT_GE(first.timeSec, 0.6); // inside the hog window
    EXPECT_LE(first.timeSec, 0.8);
    // The drift ends, so the hog is walked back to healthy.
    EXPECT_EQ(report.quarantineEvents.back().to, "healthy");
    EXPECT_EQ(report.tenants[11].quarantineStage, "healthy");
    // Attribution separates the hog from every healthy tenant.
    const double hogPeak = report.tenants[11].peakAntagonistScore;
    EXPECT_GT(hogPeak, 0.7);
    for (std::size_t i = 0; i < report.tenants.size(); ++i)
        if (i != 11) {
            EXPECT_LT(report.tenants[i].peakAntagonistScore, 0.7)
                << report.tenants[i].name;
        }

    // (c) Blast radius: every well-behaved tenant's p99 stays
    // within 1.2x of the same scenario without the antagonists.
    const ChaosRun base = runChaos(1, false);
    EXPECT_TRUE(base.report.quarantineEvents.empty());
    ASSERT_EQ(base.report.tenants.size(), report.tenants.size());
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        if (i == 0 || i == 11)
            continue; // the antagonists pay for their behaviour
        ASSERT_GT(base.report.tenants[i].p99Us, 0.0);
        EXPECT_LE(report.tenants[i].p99Us,
                  1.2 * base.report.tenants[i].p99Us)
            << report.tenants[i].name;
    }

    // (d) Admission control visibly adapts: the flooder's token
    // rate is cut while it floods (rejections mount) and recovers
    // after the burst passes.
    const TenantServingStats &flooder = report.tenants[0];
    EXPECT_GT(flooder.rejected, 0u);
    EXPECT_GT(flooder.admitDecreases, 0u);
    EXPECT_GT(flooder.admitIncreases, 0u);
    EXPECT_GT(flooder.admitRpsBase, 0.0);
    bool flooderDecrease = false, anyRecover = false;
    for (const AdmissionRecord &rec : report.admissionEvents) {
        if (rec.tenant == "BERT#0" && rec.action == "decrease")
            flooderDecrease = true;
        if (rec.action == "recover")
            anyRecover = true;
    }
    EXPECT_TRUE(flooderDecrease);
    EXPECT_TRUE(anyRecover);

    // Churn rode along: the joiner, leaver, and migrant all did
    // their thing in the middle of the storm.
    EXPECT_GE(report.tenants[40].joinSec, 0.5);
    EXPECT_GT(report.tenants[40].offered, 0u);
    EXPECT_GE(report.tenants[41].leaveSec, 1.5);
    EXPECT_EQ(report.tenants[42].migrations, 1u);
    EXPECT_EQ(report.tenants[42].core, 23u);
}

TEST(ServeChaosScenario, AttributionMatrixNamesThePerpetrator)
{
    // The external collector sees the same matrix the detector uses:
    // the hog's "charged" column dominates its victims' wait.
    ServeConfig cfg = chaosConfig();
    ClusterManager manager(cfg);
    addChaosTenants(manager);
    AttributionCollector attribution;
    manager.setAttribution(&attribution);
    StatRegistry registry;
    manager.setStats(&registry);
    const auto report_or = manager.run();
    ASSERT_TRUE(report_or.ok());
    attribution.registerStats(registry);
    // The hog accrues charged wait; the registry exports it under
    // its tenant label for the blame matrix in --stats-json.
    EXPECT_TRUE(
        registry.has("serve.tenant.BERT_11.attrib.charged_us"));
    EXPECT_GT(registry.value("serve.tenant.BERT_11.attrib.charged_us"),
              0.0);
}

TEST(ServeChaosScenario, UsedAttributionCollectorIsRefusedUntouched)
{
    // The detector reads the collector by dense index, so a collector
    // that already holds tenants is a structured run() error, and the
    // refused run registers nothing in it.
    ServeConfig cfg = smallConfig(2);
    cfg.admission.enabled = true;
    ClusterManager manager(cfg);
    ASSERT_TRUE(manager.addTenant(tenant("a", 100.0, 100.0)));
    ASSERT_TRUE(manager.addTenant(tenant("b", 100.0, 100.0)));
    AttributionCollector attribution;
    attribution.addTenant(static_cast<WorkloadId>(7), "earlier");
    manager.setAttribution(&attribution);
    const auto report_or = manager.run();
    ASSERT_FALSE(report_or.ok());
    EXPECT_EQ(report_or.error().message,
              "serve: attribution collector already holds tenants; "
              "attach a fresh one");
    EXPECT_EQ(report_or.error().token, "a");
    EXPECT_EQ(attribution.tenantCount(), 1u);

    AttributionCollector fresh;
    manager.setAttribution(&fresh);
    ASSERT_TRUE(manager.run().ok());
    EXPECT_EQ(fresh.tenantCount(), 2u);
}

} // namespace
} // namespace v10
