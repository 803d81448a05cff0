/**
 * @file
 * Integration tests for request tracing on the serving stack: span
 * output must be byte-identical across --jobs counts, attaching a
 * tracer must not perturb the simulation, the per-tenant sojourn
 * decomposition must conserve, the burn-rate monitor must surface in
 * the report, and the merged Chrome trace must satisfy the schema
 * properties (balanced async pairs, monotone counter tracks, stable
 * pid assignment).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "metrics/interval_sampler.h"
#include "metrics/stat_registry.h"
#include "metrics/timeline.h"
#include "serve/cluster_manager.h"
#include "serve/serving_report.h"
#include "trace/request_tracer.h"
#include "trace/trace_context.h"

namespace v10 {
namespace {

/** The golden-test 24-tenant mixed scenario (half with SLO targets). */
ClusterManager
makeScenario(std::size_t jobs)
{
    ServeConfig cfg;
    cfg.numCores = 6;
    cfg.durationSec = 2.0;
    cfg.seed = 20260808;
    cfg.queueCapacity = 32;
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.serviceDist = ServiceDist::Lognormal;
    cfg.serviceCv = 0.8;
    cfg.jobs = jobs;
    ClusterManager manager(cfg);
    const char *models[] = {"BERT", "DLRM", "NCF", "RsNt"};
    for (int i = 0; i < 24; ++i) {
        ServeTenant t;
        t.model = models[i % 4];
        t.name = t.model + std::string("#") + std::to_string(i);
        t.arrival.kind = static_cast<ArrivalKind>(i % 3);
        t.arrival.rps = 400.0 + 60.0 * static_cast<double>(i % 5);
        t.serviceUsOverride = 150.0 + 25.0 * (i % 3);
        t.slo.latencyTargetUs = (i % 2) ? 4000.0 : 0.0;
        t.slo.weight = (i % 4 == 0) ? 2.0 : 1.0;
        EXPECT_TRUE(manager.addTenant(std::move(t)));
    }
    return manager;
}

/** Run with a tracer attached; return (document, span JSONL). */
std::pair<std::string, std::string>
renderTraced(std::size_t jobs, std::uint64_t sampleN = 1)
{
    ClusterManager manager = makeScenario(jobs);
    StatRegistry registry;
    RequestTracer tracer(sampleN);
    manager.setStats(&registry);
    manager.setRequestTracer(&tracer);
    auto report = manager.run();
    EXPECT_TRUE(report.ok());
    std::ostringstream doc;
    writeServingDocumentJson(doc, ServeManifest{}, report.value(),
                             &registry);
    std::ostringstream spans;
    tracer.writeJsonl(spans);
    return {doc.str(), spans.str()};
}

TEST(ServingTrace, SpansAreByteIdenticalAcrossJobs)
{
    const auto serial = renderTraced(1);
    ASSERT_FALSE(serial.second.empty());
    for (std::size_t jobs : {2u, 4u}) {
        const auto parallel = renderTraced(jobs);
        EXPECT_EQ(serial.second, parallel.second) << "jobs=" << jobs;
        EXPECT_EQ(serial.first, parallel.first) << "jobs=" << jobs;
    }
}

TEST(ServingTrace, TracerAttachmentIsPassive)
{
    // The document with a tracer attached must equal the document
    // without one: recording never feeds back into scheduling.
    ClusterManager plain = makeScenario(1);
    StatRegistry registry;
    plain.setStats(&registry);
    auto report = plain.run();
    ASSERT_TRUE(report.ok());
    std::ostringstream doc;
    writeServingDocumentJson(doc, ServeManifest{}, report.value(),
                             &registry);
    const auto traced = renderTraced(1);
    EXPECT_EQ(doc.str(), traced.first);
}

TEST(ServingTrace, SamplingKeepsASubsetWithTheSameContent)
{
    const auto full = renderTraced(1, 1);
    const auto sampled = renderTraced(1, 4);
    // Every sampled line appears verbatim in the full trace, and the
    // subset is strict but non-empty at 1/4 on thousands of spans.
    ASSERT_FALSE(sampled.second.empty());
    EXPECT_LT(sampled.second.size(), full.second.size());
    std::istringstream in(sampled.second);
    std::string line;
    while (std::getline(in, line))
        EXPECT_NE(full.second.find(line), std::string::npos) << line;
}

TEST(ServingTrace, SpanIdentityMatchesSeedDerivation)
{
    ClusterManager manager = makeScenario(1);
    RequestTracer tracer;
    manager.setRequestTracer(&tracer);
    ASSERT_TRUE(manager.run().ok());
    ASSERT_GT(tracer.spanCount(), 0u);
    const std::uint64_t seed = manager.config().seed;
    for (const RequestSpan &span : tracer.spans()) {
        EXPECT_EQ(span.ctx.traceId,
                  traceIdFor(seed, span.ctx.tenant, span.ctx.seq));
        // Per-span decomposition: queue + solo + inflation == sojourn.
        EXPECT_NEAR(span.queueUs() + span.soloUs + span.inflationUs(),
                    span.sojournUs(),
                    1e-9 * std::max(1.0, span.sojournUs()));
        if (span.shed) {
            EXPECT_EQ(span.startUs, span.endUs);
        } else {
            EXPECT_GE(span.endUs, span.startUs);
            EXPECT_GE(span.startUs, span.arrivalUs);
        }
    }
}

TEST(ServingTrace, TenantAttributionConserves)
{
    ClusterManager manager = makeScenario(1);
    auto report = manager.run();
    ASSERT_TRUE(report.ok());
    bool sawService = false;
    for (const TenantServingStats &t : report.value().tenants) {
        // queue + solo + inflation == sojourn, summed per tenant.
        const double sum =
            t.attribQueueUs + t.attribSoloUs + t.attribInflationUs;
        EXPECT_NEAR(sum, t.attribSojournUs,
                    1e-6 * std::max(1.0, t.attribSojournUs))
            << t.name;
        EXPECT_NEAR(t.attribQueueUs + t.attribServiceUs,
                    t.attribSojournUs,
                    1e-6 * std::max(1.0, t.attribSojournUs))
            << t.name;
        sawService = sawService || t.attribServiceUs > 0.0;
        // Mean sojourn consistency with the latency stats.
        if (t.completed > 0) {
            EXPECT_NEAR(t.attribSojournUs /
                            static_cast<double>(t.completed),
                        t.meanUs, 1e-6 * std::max(1.0, t.meanUs))
                << t.name;
        }
    }
    EXPECT_TRUE(sawService);
}

TEST(ServingTrace, BurnRatesSurfaceInTheReport)
{
    ClusterManager manager = makeScenario(1);
    auto report = manager.run();
    ASSERT_TRUE(report.ok());
    const SloPolicy policy = manager.config().sloPolicy;
    std::uint64_t alerts = 0;
    for (const TenantServingStats &t : report.value().tenants) {
        EXPECT_GE(t.burnShort, 0.0);
        EXPECT_GE(t.burnLong, 0.0);
        // The alert decision is exactly the multi-window rule.
        EXPECT_EQ(t.sloAlert, t.burnShort > policy.alertBurnRate &&
                                  t.burnLong > policy.alertBurnRate)
            << t.name;
        // Tenants without a target cannot violate, hence never burn.
        if (t.sloTargetUs == 0.0) {
            EXPECT_EQ(t.burnShort, 0.0) << t.name;
            EXPECT_EQ(t.burnLong, 0.0) << t.name;
        }
        alerts += t.sloAlert ? 1 : 0;
    }
    EXPECT_EQ(alerts, report.value().sloAlerts);
}

// ---------------------------------------------------------------
// Chrome-trace schema properties on a 2-tenant serve run.
// ---------------------------------------------------------------

TEST(ServingTrace, ChromeTraceSchemaHolds)
{
    ServeConfig cfg;
    cfg.numCores = 2;
    cfg.durationSec = 0.5;
    cfg.seed = 7;
    cfg.serviceDist = ServiceDist::Exponential;
    cfg.queueSampleTicks = 32;
    ClusterManager manager(cfg);
    for (int i = 0; i < 2; ++i) {
        ServeTenant t;
        t.model = i == 0 ? "BERT" : "NCF";
        t.name = t.model + std::string("#") + std::to_string(i);
        t.arrival.rps = 900.0;
        t.serviceUsOverride = 300.0;
        t.slo.latencyTargetUs = 2000.0;
        ASSERT_TRUE(manager.addTenant(std::move(t)));
    }
    RequestTracer tracer;
    IntervalSampler sampler(10'000);
    manager.setRequestTracer(&tracer);
    manager.setSampler(&sampler);
    ASSERT_TRUE(manager.run().ok());
    ASSERT_GT(tracer.spanCount(), 0u);
    ASSERT_GT(sampler.rowCount(), 0u);

    TimelineTracer timeline(cfg.core.freqGHz * 1e3);
    timeline.attachSampler(&sampler);
    timeline.attachSpans(&tracer);
    std::ostringstream os;
    timeline.writeChromeTrace(os);
    const JsonValue doc = JsonValue::parse(os.str()).value();
    ASSERT_TRUE(doc.isArray());
    ASSERT_FALSE(doc.array.empty());

    // Async "b"/"e" pairs balance per span id; counter tracks have
    // monotone timestamps; pid assignment is stable (0 = counters,
    // 1 = request spans).
    std::map<std::string, std::int64_t> open;
    std::map<std::string, double> counterTs;
    std::size_t counters = 0;
    std::size_t spans = 0;
    for (const JsonValue &ev : doc.array) {
        ASSERT_TRUE(ev.isObject());
        const std::string ph = ev.find("ph")->str;
        const double ts = ev.find("ts")->number;
        EXPECT_GE(ts, 0.0);
        if (ph == "C") {
            ++counters;
            EXPECT_EQ(ev.find("pid")->number, 0.0);
            const std::string track =
                ev.find("name")->str + "#" +
                jsonNumber(ev.find("pid")->number);
            auto it = counterTs.find(track);
            if (it != counterTs.end()) {
                EXPECT_GE(ts, it->second) << track;
            }
            counterTs[track] = ts;
        } else if (ph == "b" || ph == "e") {
            ++spans;
            EXPECT_EQ(ev.find("pid")->number, 1.0);
            const std::string key =
                ev.find("id")->str + "/" + ev.find("name")->str;
            open[key] += ph == "b" ? 1 : -1;
            // An "e" can never precede its "b" in emission order.
            EXPECT_GE(open[key], 0) << key;
        }
    }
    EXPECT_GT(counters, 0u);
    EXPECT_GT(spans, 0u);
    for (const auto &[key, depth] : open)
        EXPECT_EQ(depth, 0) << key;

    // Queue-depth / in-flight series surfaced as sampler columns.
    bool sawQueueDepth = false;
    for (const std::string &name : sampler.probeNames())
        sawQueueDepth =
            sawQueueDepth ||
            name.find("queue_depth") != std::string::npos;
    EXPECT_TRUE(sawQueueDepth);
}

} // namespace
} // namespace v10
