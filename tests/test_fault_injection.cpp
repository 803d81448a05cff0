/**
 * @file
 * Tests for the fault-injection framework and graceful degradation:
 * the FaultPlan spec/JSON grammar, FaultInjector determinism, the
 * engine's retry/quarantine/watchdog behavior, diagnostic bundles,
 * and bit-identical results under parallel sweeps with faults on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "serve/cluster_manager.h"
#include "sim/fault_plan.h"
#include "v10/sweep.h"

namespace v10 {
namespace {

FaultPlan
planOrDie(const std::string &spec)
{
    Result<FaultPlan> r = FaultPlan::parse(spec);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().toString());
    return r.take();
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, stats);
    return os.str();
}

// ---------------------------------------------------------------
// Spec and JSON grammar.
// ---------------------------------------------------------------

TEST(FaultPlanSpec, ParsesSitesWithOptions)
{
    const FaultPlan plan = planOrDie(
        "runaway:rate=0.05:tenant=1:mag=8:after=1000:count=2,"
        "dma-timeout:rate=0.01");
    ASSERT_EQ(plan.sites().size(), 2u);
    const FaultSite &s = plan.sites()[0];
    EXPECT_EQ(s.kind, FaultKind::RunawayOp);
    EXPECT_DOUBLE_EQ(s.rate, 0.05);
    EXPECT_DOUBLE_EQ(s.magnitude, 8.0);
    EXPECT_EQ(s.tenant, 1);
    EXPECT_EQ(s.after, 1000u);
    EXPECT_EQ(s.maxCount, 2u);
    EXPECT_EQ(plan.sites()[1].kind, FaultKind::DmaTimeout);
    EXPECT_EQ(plan.sites()[1].tenant, -1);
}

TEST(FaultPlanSpec, RoundTripsThroughSummary)
{
    const FaultPlan plan = planOrDie(
        "hbm-stall:rate=0.5:mag=3000,flood:rate=0.2:tenant=0");
    const FaultPlan again = planOrDie(plan.summary());
    ASSERT_EQ(again.sites().size(), plan.sites().size());
    for (std::size_t i = 0; i < plan.sites().size(); ++i)
        EXPECT_EQ(again.sites()[i].spec(), plan.sites()[i].spec());
}

TEST(FaultPlanSpec, RejectsBadInput)
{
    EXPECT_FALSE(FaultPlan::parse("gremlins:rate=0.5").ok());
    EXPECT_FALSE(FaultPlan::parse("runaway:rate=1.5").ok());
    EXPECT_FALSE(FaultPlan::parse("runaway:rate=abc").ok());
    EXPECT_FALSE(FaultPlan::parse("runaway:bogus=1").ok());
    const Result<FaultPlan> r = FaultPlan::parse("runaway:rate=-1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().source, "--faults");
    EXPECT_FALSE(r.error().message.empty());
}

TEST(FaultPlanSpec, JsonFormParses)
{
    const Result<FaultPlan> r = FaultPlan::fromJson(
        R"({"seed": 7, "faults": [)"
        R"({"kind": "hbm-stall", "rate": 0.5, "mag": 100},)"
        R"({"kind": "runaway", "rate": 0.1, "tenant": 1}]})",
        "plan.json");
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(r.value().seed(), 7u);
    ASSERT_EQ(r.value().sites().size(), 2u);
    EXPECT_EQ(r.value().sites()[1].tenant, 1);
}

TEST(FaultPlanSpec, JsonFormRejectsBadInput)
{
    EXPECT_FALSE(FaultPlan::fromJson("{", "x").ok());
    EXPECT_FALSE(
        FaultPlan::fromJson(R"({"faults": [{"rate": 0.5}]})", "x")
            .ok());
    EXPECT_FALSE(FaultPlan::fromJsonFile("/nonexistent/plan.json")
                     .ok());
}

// ---------------------------------------------------------------
// Injector determinism and site gating.
// ---------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisionStream)
{
    const FaultPlan plan = planOrDie(
        "hbm-stall:rate=0.3,hbm-droop:rate=0.3,dma-timeout:rate=0.1,"
        "sa-corrupt:rate=0.4,runaway:rate=0.2,flood:rate=0.2");
    FaultInjector a(plan, 42);
    FaultInjector b(plan, 42);
    for (Cycles now = 0; now < 200; now += 7) {
        const WorkloadId tenant = (now / 7) % 3;
        const auto da = a.onDmaStart(tenant, now);
        const auto db = b.onDmaStart(tenant, now);
        EXPECT_EQ(da.stallCycles, db.stallCycles);
        EXPECT_DOUBLE_EQ(da.inflate, db.inflate);
        EXPECT_EQ(da.hang, db.hang);
        EXPECT_EQ(a.corruptSaContext(tenant, now),
                  b.corruptSaContext(tenant, now));
        EXPECT_DOUBLE_EQ(a.runawayFactor(tenant, now),
                         b.runawayFactor(tenant, now));
        EXPECT_EQ(a.floodBurst(tenant, now),
                  b.floodBurst(tenant, now));
    }
    EXPECT_EQ(a.injectedCount(), b.injectedCount());
    EXPECT_EQ(a.log().size(), b.log().size());
}

TEST(FaultInjector, MaxCountLimitsInjections)
{
    const FaultPlan plan = planOrDie("runaway:rate=1:count=2");
    FaultInjector inj(plan, 1);
    std::size_t fired = 0;
    for (int i = 0; i < 10; ++i)
        if (inj.runawayFactor(0, 100 + i) > 1.0)
            ++fired;
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(inj.injectedCount(), 2u);
}

TEST(FaultInjector, AfterGateKeepsSiteDormant)
{
    const FaultPlan plan = planOrDie("runaway:rate=1:after=1000");
    FaultInjector inj(plan, 1);
    EXPECT_DOUBLE_EQ(inj.runawayFactor(0, 500), 1.0);
    EXPECT_GT(inj.runawayFactor(0, 1500), 1.0);
}

TEST(FaultInjector, TenantFilterTargetsOneTenant)
{
    const FaultPlan plan = planOrDie("sa-corrupt:rate=1:tenant=1");
    FaultInjector inj(plan, 1);
    EXPECT_FALSE(inj.corruptSaContext(0, 10));
    EXPECT_TRUE(inj.corruptSaContext(1, 20));
}

// ---------------------------------------------------------------
// Engine-level degradation.
// ---------------------------------------------------------------

std::vector<TenantRequest>
pairTenants()
{
    return {TenantRequest{"MNST", 0, 1.0},
            TenantRequest{"NCF", 0, 1.0}};
}

TEST(EngineFaults, SerialAndParallelSweepsAreBitIdentical)
{
    const FaultPlan plan = planOrDie(
        "hbm-stall:rate=0.2:mag=2000,runaway:rate=0.1:mag=4,"
        "dma-timeout:rate=0.05,sa-corrupt:rate=0.2");

    SweepCell cell;
    cell.kind = SchedulerKind::V10Full;
    cell.tenants = pairTenants();
    cell.requests = 5;
    cell.warmup = 1;
    cell.options.resilience.faults = &plan;
    cell.options.resilience.faultSeed = 99;
    cell.options.resilience.quarantineThreshold = 50;
    const std::vector<SweepCell> cells(4, cell);

    ExperimentRunner serial_runner{NpuConfig{}};
    ExperimentRunner parallel_runner{NpuConfig{}};
    const auto serial = SweepRunner(serial_runner, 1).run(cells);
    const auto parallel = SweepRunner(parallel_runner, 4).run(cells);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(statsJson(serial[i]), statsJson(parallel[i]))
            << "cell " << i;
        // Identical cells get identical fault sequences too.
        EXPECT_EQ(statsJson(serial[i]), statsJson(serial[0]));
    }
    EXPECT_GT(serial[0].faultsInjected, 0u);
}

TEST(EngineFaults, ResiliencePlumbingAloneDoesNotPerturbResults)
{
    ExperimentRunner runner{NpuConfig{}};
    SchedulerOptions plain;
    const RunStats base = runner.run(SchedulerKind::V10Full,
                                     pairTenants(), 5, 1, plain);

    SchedulerOptions guarded;
    guarded.resilience.watchdogInterval = 100'000;
    guarded.resilience.quarantineThreshold = 3;
    const RunStats watched = runner.run(
        SchedulerKind::V10Full, pairTenants(), 5, 1, guarded);

    EXPECT_EQ(statsJson(base), statsJson(watched));
    EXPECT_FALSE(watched.aborted);
}

TEST(EngineFaults, DmaRetriesRecoverFromTimeouts)
{
    const FaultPlan plan = planOrDie("dma-timeout:rate=0.2");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 5, 1, so);
    EXPECT_FALSE(stats.aborted);
    EXPECT_GT(stats.faultsInjected, 0u);
    EXPECT_GT(stats.dmaRetries, 0u);
    EXPECT_EQ(stats.quarantinedTenants, 0u);
    for (const auto &w : stats.workloads)
        EXPECT_GT(w.requests, 0u);
}

TEST(EngineFaults, SaCorruptionForcesReplays)
{
    const FaultPlan plan = planOrDie("sa-corrupt:rate=0.3");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 5, 1, so);
    EXPECT_FALSE(stats.aborted);
    EXPECT_GT(stats.saReplays, 0u);
    // Corruption victims are not punished: nobody quarantined.
    EXPECT_EQ(stats.quarantinedTenants, 0u);
}

TEST(EngineFaults, CycleBudgetCatchesCorruptionLivelock)
{
    // At rate 1 every preemption loses the context, so operators
    // longer than one slice replay forever — a genuine livelock
    // that makes continuous "progress" (preemptions) and so never
    // looks wedged to the watchdog. The cycle budget is the gate
    // that catches it.
    const FaultPlan plan = planOrDie("sa-corrupt:rate=1");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    so.resilience.cycleBudget = 20'000'000;
    so.resilience.watchdogInterval = 1'000'000;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 5, 1, so);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("cycle budget"),
              std::string::npos);
    EXPECT_GT(stats.saReplays, 0u);
}

TEST(EngineFaults, QuarantinedTenantDoesNotStarveOthers)
{
    const FaultPlan plan = planOrDie("runaway:rate=1:tenant=0");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    so.resilience.quarantineThreshold = 1;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 5, 1, so);
    EXPECT_FALSE(stats.aborted);
    EXPECT_EQ(stats.quarantinedTenants, 1u);
    ASSERT_EQ(stats.workloads.size(), 2u);
    EXPECT_TRUE(stats.workloads[0].quarantined);
    EXPECT_GT(stats.workloads[0].faultStrikes, 0u);
    // The healthy tenant still finishes its measurement window.
    EXPECT_FALSE(stats.workloads[1].quarantined);
    EXPECT_GT(stats.workloads[1].requests, 0u);
}

TEST(EngineFaults, AllTenantsQuarantinedAbortsTheRun)
{
    const FaultPlan plan = planOrDie("runaway:rate=1");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    so.resilience.quarantineThreshold = 1;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 5, 1, so);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("quarantined"),
              std::string::npos);
    EXPECT_EQ(stats.quarantinedTenants, 2u);
}

TEST(EngineFaults, CycleBudgetAbortsWedgelesslyLongRuns)
{
    SchedulerOptions so;
    so.resilience.cycleBudget = 20'000;
    so.resilience.watchdogInterval = 10'000;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 200, 1, so);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("cycle budget"),
              std::string::npos);
}

TEST(EngineFaults, AbortWritesDiagnosticBundle)
{
    const std::string dir =
        ::testing::TempDir() + "/v10_diag_bundle";
    StatRegistry registry;
    SchedulerOptions so;
    so.stats = &registry;
    so.resilience.cycleBudget = 20'000;
    so.resilience.watchdogInterval = 10'000;
    so.resilience.diagnosticDir = dir;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 200, 1, so);
    ASSERT_TRUE(stats.aborted);

    std::ifstream in(dir + "/diagnostics.json");
    ASSERT_TRUE(in.is_open());
    std::ostringstream os;
    os << in.rdbuf();
    const JsonValue doc = JsonValue::parse(os.str()).value();
    EXPECT_NE(doc.find("reason")->str.find("cycle budget"),
              std::string::npos);
    ASSERT_TRUE(doc.has("tenants"));
    EXPECT_EQ(doc.find("tenants")->array.size(), 2u);
    EXPECT_TRUE(doc.has("fault_log"));
    EXPECT_TRUE(doc.has("registry"));
    // The frozen registry snapshot made it into the bundle.
    EXPECT_FALSE(doc.find("registry")->object.empty());
}

TEST(EngineFaults, FloodInjectsExtraOpenLoopArrivals)
{
    const FaultPlan plan = planOrDie("flood:rate=0.5:mag=3");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    std::vector<TenantRequest> tenants = pairTenants();
    tenants[0].arrivalRps = 2000.0;
    tenants[1].arrivalRps = 2000.0;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      tenants, 5, 1, so);
    EXPECT_FALSE(stats.aborted);
    EXPECT_GT(stats.faultsInjected, 0u);
}

TEST(EngineFaults, HbmFaultsSlowTheRunButItCompletes)
{
    ExperimentRunner runner{NpuConfig{}};
    SchedulerOptions clean;
    const RunStats base = runner.run(SchedulerKind::V10Full,
                                     pairTenants(), 5, 1, clean);

    const FaultPlan plan =
        planOrDie("hbm-stall:rate=1:mag=5000,hbm-droop:rate=1:mag=2");
    SchedulerOptions so;
    so.resilience.faults = &plan;
    const RunStats hurt = runner.run(SchedulerKind::V10Full,
                                     pairTenants(), 5, 1, so);
    EXPECT_FALSE(hurt.aborted);
    EXPECT_GT(hurt.faultsInjected, 0u);
    EXPECT_GT(hurt.windowCycles, base.windowCycles);
}

// ---------------------------------------------------------------
// Serve-layer fault injection.
// ---------------------------------------------------------------

/**
 * Serve-granularity faults plus an antagonist under quarantine: a
 * flood fault bursts one tenant's arrivals while an hbm-hog drifts
 * mid-run. The resilience loop must contain the blast radius —
 * every well-behaved tenant's p99 stays within 1.2x of the same
 * faulted scenario without the antagonist, and the quarantine log
 * names exactly the hog.
 */
ServingReport
runServeFaultScenario(const FaultPlan *faults, bool withAntagonist)
{
    ServeConfig cfg;
    cfg.numCores = 4;
    cfg.durationSec = 2.0;
    cfg.seed = 3;
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.serviceDist = ServiceDist::Exponential;
    cfg.admission.enabled = true;
    cfg.admission.headroom = 4.0;
    cfg.detector.hiScore = 0.6;
    cfg.detector.loScore = 0.3;
    cfg.ladder.throttleStrikes = 1;
    cfg.ladder.isolateStrikes = 8;
    cfg.ladder.evictStrikes = 16;
    cfg.ladder.throttleFactor = 0.2;
    cfg.ladder.recoveryEpochs = 16;
    cfg.faults = faults;
    if (withAntagonist) {
        auto plan = AntagonistPlan::parse(
            "hbm-hog:tenant=2:mag=3:after=0.6:until=0.8");
        EXPECT_TRUE(plan.ok());
        cfg.antagonists = plan.take();
    }
    ClusterManager manager(cfg);
    for (int i = 0; i < 12; ++i) {
        ServeTenant t;
        t.name = "t" + std::to_string(i);
        t.model = "BERT";
        t.arrival.rps = 417.0;
        t.serviceUsOverride = 400.0;
        t.slo.latencyTargetUs = 10'000.0;
        EXPECT_TRUE(manager.addTenant(std::move(t)));
    }
    auto report = manager.run();
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.value().checkConservation());
    return report.take();
}

TEST(ServeFaults, QuarantineBoundsBlastRadiusUnderFaults)
{
    const FaultPlan faults =
        planOrDie("flood:rate=0.5:mag=3:tenant=5:count=4");

    // The flood fault deterministically injects extra arrivals for
    // its target tenant on top of the seeded stream.
    const ServingReport unfaulted =
        runServeFaultScenario(nullptr, false);
    const ServingReport base =
        runServeFaultScenario(&faults, false);
    EXPECT_GT(base.tenants[5].offered, unfaulted.tenants[5].offered);
    EXPECT_TRUE(base.quarantineEvents.empty());

    // Same faulted fleet plus a drifting hbm-hog on tenant 2.
    const ServingReport chaos = runServeFaultScenario(&faults, true);
    ASSERT_FALSE(chaos.quarantineEvents.empty());
    for (const QuarantineRecord &rec : chaos.quarantineEvents)
        EXPECT_EQ(rec.tenant, "t2");
    EXPECT_EQ(chaos.quarantineEvents.front().to, "throttled");
    EXPECT_GT(chaos.quarantineEvents.front().score, 0.6);
    // The drift ends mid-run, so the hog recovers to healthy.
    EXPECT_EQ(chaos.tenants[2].quarantineStage, "healthy");
    // Attribution separates the hog from everyone else.
    EXPECT_GT(chaos.tenants[2].peakAntagonistScore, 0.6);
    for (std::size_t i = 0; i < chaos.tenants.size(); ++i)
        if (i != 2) {
            EXPECT_LT(chaos.tenants[i].peakAntagonistScore, 0.6)
                << chaos.tenants[i].name;
        }

    // Healthy tenants ride out the storm inside the 1.2x envelope
    // of the antagonist-free (but still faulted) baseline.
    for (std::size_t i = 0; i < chaos.tenants.size(); ++i) {
        if (i == 2)
            continue;
        ASSERT_GT(base.tenants[i].p99Us, 0.0);
        EXPECT_LE(chaos.tenants[i].p99Us,
                  1.2 * base.tenants[i].p99Us)
            << chaos.tenants[i].name;
    }
}

// ---------------------------------------------------------------
// Sweep-parameter validation.
// ---------------------------------------------------------------

SweepCell
validCell()
{
    SweepCell cell;
    cell.tenants = pairTenants();
    cell.requests = 4;
    cell.label = "unit";
    return cell;
}

TEST(SweepValidation, AcceptsWellFormedCells)
{
    EXPECT_TRUE(validateSweepCell(validCell(), 0).isOk());
    const auto grid = SweepRunner::pairGrid(
        {{"MNST", "NCF"}}, {SchedulerKind::V10Full}, 4);
    EXPECT_TRUE(validateSweepCells(grid).isOk());
}

TEST(SweepValidation, RejectsBadCells)
{
    SweepCell cell = validCell();
    cell.tenants[1].model = "NOPE";
    Status s = validateSweepCell(cell, 0);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.error().token, "NOPE");
    EXPECT_NE(s.error().source.find("unit"), std::string::npos);

    cell = validCell();
    cell.tenants.clear();
    EXPECT_FALSE(validateSweepCell(cell, 0).isOk());

    cell = validCell();
    cell.requests = 0;
    EXPECT_FALSE(validateSweepCell(cell, 0).isOk());

    cell = validCell();
    cell.tenants[0].priority = 0.0;
    EXPECT_FALSE(validateSweepCell(cell, 0).isOk());

    cell = validCell();
    cell.tenants[0].arrivalRps = -1.0;
    EXPECT_FALSE(validateSweepCell(cell, 0).isOk());

    // validateSweepCells() reports the failing cell's index.
    std::vector<SweepCell> cells{validCell(), validCell()};
    cells[1].label.clear();
    cells[1].requests = 0;
    const Status all = validateSweepCells(cells);
    ASSERT_FALSE(all.isOk());
    EXPECT_NE(all.error().source.find("cell 1"), std::string::npos);
}

} // namespace
} // namespace v10
