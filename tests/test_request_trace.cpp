/**
 * @file
 * Unit tests for the request-tracing layer (src/trace): trace-ID
 * derivation and head sampling, the --trace-sample grammar, the
 * multi-window SLO burn-rate monitor, the flight-recorder ring, the
 * attribution collector, and the engine-side guarantees (attribution
 * is passive, spans and flight events come out of real runs).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "trace/attribution.h"
#include "trace/flight_recorder.h"
#include "trace/request_tracer.h"
#include "trace/slo_monitor.h"
#include "trace/trace_context.h"
#include "v10/experiment.h"

namespace v10 {
namespace {

// ---------------------------------------------------------------
// Trace identity and sampling.
// ---------------------------------------------------------------

TEST(TraceContext, IdsAreDeterministicAndDistinct)
{
    const std::uint64_t a = traceIdFor(11, 3, 7);
    EXPECT_EQ(a, traceIdFor(11, 3, 7));
    // Moving any coordinate moves the ID.
    EXPECT_NE(a, traceIdFor(12, 3, 7));
    EXPECT_NE(a, traceIdFor(11, 4, 7));
    EXPECT_NE(a, traceIdFor(11, 3, 8));

    // No collisions over a realistic grid (SplitMix64 finalizers).
    std::set<std::uint64_t> seen;
    for (std::uint32_t t = 0; t < 64; ++t)
        for (std::uint64_t s = 0; s < 64; ++s)
            seen.insert(traceIdFor(1, t, s));
    EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(TraceContext, MakeFillsEveryField)
{
    const TraceContext ctx = TraceContext::make(5, 2, 9);
    EXPECT_EQ(ctx.traceId, traceIdFor(5, 2, 9));
    EXPECT_EQ(ctx.tenant, 2u);
    EXPECT_EQ(ctx.seq, 9u);
}

TEST(TraceSampler, KeepsTheConfiguredFraction)
{
    EXPECT_FALSE(TraceSampler{0}.sampled(123));
    EXPECT_TRUE(TraceSampler{1}.sampled(123));

    const TraceSampler one_in_8{8};
    std::size_t kept = 0;
    const std::size_t total = 20000;
    for (std::size_t i = 0; i < total; ++i)
        kept += one_in_8.sampled(traceIdFor(42, 0, i)) ? 1 : 0;
    // Hashed IDs are uniform: the kept fraction concentrates around
    // 1/8 (loose 3-sigma-ish band).
    const double frac =
        static_cast<double>(kept) / static_cast<double>(total);
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, 0.15);
}

TEST(TraceSampler, ParseGrammar)
{
    EXPECT_EQ(parseTraceSample("1/8").value(), 8u);
    EXPECT_EQ(parseTraceSample("8").value(), 8u);
    EXPECT_EQ(parseTraceSample("1/1").value(), 1u);
    EXPECT_FALSE(parseTraceSample("").ok());
    EXPECT_FALSE(parseTraceSample("1/").ok());
    EXPECT_FALSE(parseTraceSample("1/0").ok());
    EXPECT_FALSE(parseTraceSample("0").ok());
    EXPECT_FALSE(parseTraceSample("1/abc").ok());
    EXPECT_FALSE(parseTraceSample("2/4").ok());
    EXPECT_FALSE(parseTraceSample("99999999999999999999999").ok());
}

// ---------------------------------------------------------------
// Request tracer output formats.
// ---------------------------------------------------------------

RequestSpan
spanAt(std::uint32_t tenant, std::uint64_t seq, double arrival,
       double start, double end)
{
    RequestSpan s;
    s.ctx = TraceContext::make(1, tenant, seq);
    s.tenant = "T#" + std::to_string(tenant);
    s.arrivalUs = arrival;
    s.startUs = start;
    s.endUs = end;
    s.soloUs = end - start;
    return s;
}

TEST(RequestTracer, JsonlLinesParseAndDecompose)
{
    RequestTracer tracer;
    tracer.add(spanAt(0, 0, 1.0, 2.5, 10.0));
    tracer.add(spanAt(1, 0, 3.0, 3.0, 4.0));
    std::ostringstream os;
    tracer.writeJsonl(os);
    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        const JsonValue v = JsonValue::parse(line).value();
        ASSERT_TRUE(v.has("trace_id"));
        // queue + service == sojourn by construction.
        EXPECT_DOUBLE_EQ(v.find("queue_us")->number +
                             v.find("service_us")->number,
                         v.find("sojourn_us")->number);
        EXPECT_DOUBLE_EQ(v.find("service_us")->number -
                             v.find("solo_us")->number,
                         v.find("inflation_us")->number);
    }
    EXPECT_EQ(lines, 2u);
}

TEST(RequestTracer, AsyncSpanEventsAreBalanced)
{
    RequestTracer tracer;
    tracer.add(spanAt(0, 0, 1.0, 2.0, 5.0));
    std::ostringstream os;
    os << "[";
    tracer.writeAsyncSpanEvents(os, 1.0, false);
    os << "]";
    const JsonValue doc = JsonValue::parse(os.str()).value();
    ASSERT_TRUE(doc.isArray());
    // Request + nested service span: two b/e pairs.
    ASSERT_EQ(doc.array.size(), 4u);
    std::size_t b = 0;
    std::size_t e = 0;
    for (const JsonValue &ev : doc.array) {
        const std::string ph = ev.find("ph")->str;
        b += ph == "b" ? 1 : 0;
        e += ph == "e" ? 1 : 0;
    }
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(e, 2u);
}

// ---------------------------------------------------------------
// SLO burn-rate monitor.
// ---------------------------------------------------------------

TEST(SloMonitor, BurnRateIsViolationRateOverBudget)
{
    SloPolicy policy;
    policy.errorBudget = 0.01;
    policy.shortWindowFrac = 0.125;
    policy.longWindowFrac = 0.5;
    policy.alertBurnRate = 2.0;
    SloMonitor monitor(1, 10.0, policy);
    // 10% of requests violate, uniformly over the run: both windows
    // see rate 0.1 -> burn 10x the 1% budget -> alert.
    for (int i = 0; i < 1000; ++i)
        monitor.record(0, 0.01 * static_cast<double>(i),
                       i % 10 == 0);
    const BurnRateStatus s = monitor.status(0);
    EXPECT_NEAR(s.shortBurn, 10.0, 1.5);
    EXPECT_NEAR(s.longBurn, 10.0, 1.5);
    EXPECT_TRUE(s.alert);
}

TEST(SloMonitor, StaleBurstDoesNotAlertTheCleanShortWindow)
{
    SloPolicy policy;
    policy.errorBudget = 0.01;
    SloMonitor monitor(1, 10.0, policy);
    // Violations burst at t in [5.5, 7.5): inside the trailing long
    // window (last 5s) but outside the short one (last 1.25s). The
    // multi-window rule suppresses the stale alert.
    for (int i = 0; i < 1000; ++i)
        monitor.record(0, 0.01 * static_cast<double>(i),
                       i >= 550 && i < 750);
    const BurnRateStatus s = monitor.status(0);
    EXPECT_EQ(s.shortBurn, 0.0);
    EXPECT_GT(s.longBurn, policy.alertBurnRate);
    EXPECT_FALSE(s.alert);
}

TEST(SloMonitor, MergeIsOrderIndependent)
{
    SloPolicy policy;
    SloMonitor bulk(2, 4.0, policy);
    SloMonitor a(2, 4.0, policy);
    SloMonitor b(2, 4.0, policy);
    for (int i = 0; i < 400; ++i) {
        const double t = 0.01 * static_cast<double>(i);
        const bool bad = i % 7 == 0;
        bulk.record(i % 2, t, bad);
        (i % 3 == 0 ? a : b).record(i % 2, t, bad);
    }
    SloMonitor ab(2, 4.0, policy);
    ab.merge(a);
    ab.merge(b);
    SloMonitor ba(2, 4.0, policy);
    ba.merge(b);
    ba.merge(a);
    for (std::size_t tenant = 0; tenant < 2; ++tenant) {
        EXPECT_DOUBLE_EQ(ab.status(tenant).shortBurn,
                         ba.status(tenant).shortBurn);
        EXPECT_DOUBLE_EQ(ab.status(tenant).longBurn,
                         bulk.status(tenant).longBurn);
    }
}

TEST(SloMonitor, CountsStayExactPastThirtyTwoBits)
{
    // The bucket counts are 32-bit words with carried high words:
    // every way a count passes 2^32 - 1 (record(), a large
    // addBucket(), a merge) must keep it exact.
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    SloMonitor monitor(1, 64.0); // one-second buckets
    monitor.addBucket(0, 0, k32 - 1, k32 - 1);
    monitor.record(0, 0.5, true); // both words wrap
    monitor.addBucket(0, 0, 7, 0);
    monitor.addBucket(0, 1, 3 * k32 + 5, k32);
    SloMonitor other(1, 64.0);
    other.addBucket(0, 0, k32 - 1, 0);
    monitor.merge(other); // 7 + (2^32 - 1) wraps
    const std::uint64_t done0 = 2 * k32 + 6;
    const std::uint64_t done1 = 3 * k32 + 5;
    EXPECT_EQ(monitor.violationRate(0, 1.0, 0.5),
              static_cast<double>(k32) / static_cast<double>(done0));
    EXPECT_EQ(monitor.violationRate(0, 1.0, 1.5),
              static_cast<double>(2 * k32) /
                  static_cast<double>(done0 + done1));
}

// ---------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------

TEST(FlightRecorder, RingKeepsTheLastKEvents)
{
    FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record(static_cast<Cycles>(i), "request",
                   "T#" + std::to_string(i));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);
    const std::vector<FlightEvent> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: cycles 6..9 survive.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, 6u + i);
}

TEST(FlightRecorder, JsonDumpHasTheContractShape)
{
    FlightRecorder rec(8);
    rec.record(5, "preempt", "BERT", 0, "SA0");
    rec.record(9, "abort", "", 0, "cycle budget");
    std::ostringstream os;
    JsonWriter w(os);
    rec.writeJson(w);
    const JsonValue doc = JsonValue::parse(os.str()).value();
    EXPECT_EQ(doc.find("capacity")->number, 8.0);
    EXPECT_EQ(doc.find("dropped")->number, 0.0);
    ASSERT_EQ(doc.find("events")->array.size(), 2u);
    const JsonValue &first = doc.find("events")->array[0];
    EXPECT_EQ(first.find("cycle")->number, 5.0);
    EXPECT_EQ(first.find("kind")->str, "preempt");
}

// ---------------------------------------------------------------
// Attribution collector.
// ---------------------------------------------------------------

TEST(Attribution, ChargesLandInTheRightCell)
{
    AttributionCollector attrib;
    const std::size_t a = attrib.addTenant(0, "BERT#0");
    const std::size_t b = attrib.addTenant(1, "NCF#1");
    attrib.chargePreemptStall(0, 1, 100.0);
    attrib.chargePreemptStall(0, 1, 50.0);
    attrib.onHbmContention(1, 0, 30.0);
    attrib.chargeCtxOverhead(1, 7.0);
    EXPECT_DOUBLE_EQ(attrib.preemptStall(a, b), 150.0);
    EXPECT_DOUBLE_EQ(attrib.preemptStall(b, a), 0.0);
    EXPECT_DOUBLE_EQ(attrib.hbmContention(b, a), 30.0);
    EXPECT_DOUBLE_EQ(attrib.ctxOverhead(b), 7.0);
    EXPECT_DOUBLE_EQ(attrib.totalPreemptStall(a), 150.0);
    // Charges against unknown ids are silently dropped.
    attrib.chargePreemptStall(0, kNoWorkload, 99.0);
    attrib.chargePreemptStall(9, 1, 99.0);
    EXPECT_DOUBLE_EQ(attrib.totalPreemptStall(a), 150.0);
}

TEST(Attribution, RegistryPathsAreSanitizedAndComplete)
{
    AttributionCollector attrib;
    attrib.addTenant(0, "BERT#0");
    attrib.addTenant(1, "NCF#1");
    attrib.chargePreemptStall(0, 1, 10.0);
    StatRegistry registry;
    attrib.registerStats(registry);
    registry.freeze();
    const auto snapshot = registry.snapshot();
    std::set<std::string> paths;
    for (const auto &[path, value] : snapshot)
        paths.insert(path);
    EXPECT_TRUE(paths.count(
        "serve.tenant.BERT_0.attrib.preempt_stall_cycles"));
    EXPECT_TRUE(paths.count(
        "serve.tenant.BERT_0.attrib.from.NCF_1.preempt_stall_cycles"));
    EXPECT_TRUE(paths.count(
        "serve.tenant.NCF_1.attrib.hbm_contention_cycles"));
    EXPECT_TRUE(
        paths.count("serve.tenant.NCF_1.attrib.ctx_overhead_cycles"));
}

TEST(Attribution, TenantsAddedAfterChargesKeepEveryValue)
{
    AttributionCollector attrib;
    attrib.addTenant(10, "A");
    attrib.addTenant(11, "B");
    attrib.chargePreemptStall(10, 11, 5.0);
    attrib.onHbmContention(11, 10, 6.0);
    attrib.chargeQueueWait(10, 11, 7.0);
    attrib.chargeCtxOverhead(11, 8.0);
    // Grow well past any initial capacity, charging as tenants join.
    for (int i = 2; i < 40; ++i) {
        std::string label = "T";
        label += std::to_string(i);
        attrib.addTenant(static_cast<WorkloadId>(10 + i), label);
        attrib.chargeQueueWait(static_cast<WorkloadId>(10 + i), 10,
                               static_cast<double>(i));
    }
    ASSERT_EQ(attrib.tenantCount(), 40u);
    EXPECT_DOUBLE_EQ(attrib.preemptStall(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(attrib.hbmContention(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(attrib.queueWait(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(attrib.ctxOverhead(1), 8.0);
    EXPECT_DOUBLE_EQ(attrib.queueWait(39, 0), 39.0);
    EXPECT_DOUBLE_EQ(attrib.preemptStall(39, 38), 0.0);
    // Column 0 holds 2 + 3 + ... + 39 from the late joiners.
    EXPECT_DOUBLE_EQ(attrib.chargedUs(0), 779.0);
    EXPECT_DOUBLE_EQ(attrib.chargedUs(1), 7.0);

    StatRegistry registry;
    attrib.registerStats(registry);
    // Formulas read live state until the registry freezes.
    attrib.chargePreemptStall(10, 11, 1.0);
    const std::string a = "serve.tenant.A.attrib.";
    EXPECT_DOUBLE_EQ(registry.value(a + "from.B.preempt_stall_cycles"),
                     6.0);
    EXPECT_DOUBLE_EQ(registry.value(a + "preempt_stall_cycles"), 6.0);
    EXPECT_DOUBLE_EQ(registry.value(a + "queue_wait_us"), 7.0);
    EXPECT_DOUBLE_EQ(registry.value(a + "charged_us"), 779.0);
    EXPECT_DOUBLE_EQ(
        registry.value("serve.tenant.B.attrib.from.A.hbm_contention_"
                       "cycles"),
        6.0);
    EXPECT_DOUBLE_EQ(
        registry.value("serve.tenant.B.attrib.ctx_overhead_cycles"),
        8.0);
    EXPECT_DOUBLE_EQ(
        registry.value("serve.tenant.T39.attrib.from.A.queue_wait_us"),
        39.0);
    registry.freeze();
    attrib.chargePreemptStall(10, 11, 100.0);
    EXPECT_DOUBLE_EQ(registry.value(a + "from.B.preempt_stall_cycles"),
                     6.0);
}

TEST(Attribution, OneSweepColumnSumsMatchChargedUsBitForBit)
{
    // The epoch loop reads every column sum from one victim-major
    // sweep; the antagonist detector needs exactly chargedUs()'s
    // values, so the sums must add the same terms in the same order.
    AttributionCollector attrib;
    const std::size_t n = 37;
    for (std::size_t i = 0; i < n; ++i)
        attrib.addTenant(static_cast<WorkloadId>(i), "T");
    for (std::size_t v = 0; v < n; ++v)
        for (std::size_t p = 0; p < n; ++p)
            attrib.chargeQueueWait(static_cast<WorkloadId>(v),
                                   static_cast<WorkloadId>(p),
                                   0.1 * static_cast<double>(v + 1) /
                                       static_cast<double>(p + 3));
    std::vector<double> sums;
    attrib.chargedUsAll(sums);
    ASSERT_EQ(sums.size(), n);
    for (std::size_t p = 0; p < n; ++p)
        EXPECT_EQ(sums[p], attrib.chargedUs(p)) << p;
}

TEST(Attribution, SparseColumnSumsMatchDenseReferenceBitForBit)
{
    // chargedUs() adds only the cells its perpetrator has charged.
    // Against a dense reference that adds every cell in ascending
    // victim order, the doubles must match bit for bit: through zero
    // charges, cells charged back to zero, repeated cells, tenants
    // that join after charges, and charges in any order.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        AttributionCollector attrib;
        std::vector<std::vector<double>> ref; // [victim][perp]
        // Tenant i has id 3i, so some charged ids are unknown.
        const auto addTenant = [&] {
            const std::size_t i = ref.size();
            EXPECT_EQ(attrib.addTenant(static_cast<WorkloadId>(3 * i),
                                       "T"),
                      i);
            for (auto &row : ref)
                row.push_back(0.0);
            ref.emplace_back(i + 1, 0.0);
        };
        for (std::size_t i = 0, n0 = 1 + rng.uniformInt(6); i < n0; ++i)
            addTenant();
        const std::size_t steps = 50 + rng.uniformInt(400);
        for (std::size_t step = 0; step < steps; ++step) {
            if (rng.bernoulli(0.05)) {
                addTenant();
                continue;
            }
            const std::size_t n = ref.size();
            // Few perpetrators per victim, as on a fleet core.
            const std::size_t v = rng.uniformInt(n);
            const std::size_t p = rng.bernoulli(0.2)
                                      ? v
                                      : (v + 1 + rng.uniformInt(3)) % n;
            const auto id = static_cast<WorkloadId>(
                3 * (rng.bernoulli(0.05) ? n + 1 : p) +
                (rng.bernoulli(0.05) ? 1 : 0));
            const double u = rng.uniform();
            const double us = u < 0.1   ? 0.0
                              : u < 0.15 ? -0.0
                              : u < 0.25 ? -ref[v][p]
                              : u < 0.3  ? -rng.uniform(0.0, 50.0)
                                         : rng.uniform(0.0, 1e4) / 7.0;
            attrib.chargeQueueWait(static_cast<WorkloadId>(3 * v), id,
                                   us);
            if (id == 3 * p)
                ref[v][p] += us;
        }
        const std::size_t n = ref.size();
        ASSERT_EQ(attrib.tenantCount(), n);
        std::vector<double> all;
        attrib.chargedUsAll(all);
        ASSERT_EQ(all.size(), n);
        for (std::size_t p = 0; p < n; ++p) {
            double column = 0.0;
            double row = 0.0;
            for (std::size_t v = 0; v < n; ++v) {
                if (v != p)
                    column += ref[v][p];
                row += ref[p][v];
                EXPECT_TRUE(same(attrib.queueWait(v, p), ref[v][p]))
                    << v << ' ' << p;
            }
            EXPECT_TRUE(same(attrib.chargedUs(p), column)) << p;
            EXPECT_TRUE(same(all[p], column)) << p;
            EXPECT_TRUE(same(attrib.totalQueueWait(p), row)) << p;
        }
    }
}

/**
 * The attribution matrices stored dense, as a reference: every cell
 * of every pair exists, and every sum adds all of them.
 */
struct DenseAttribution
{
    static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);
    enum Kind { kHbm, kPreempt, kWait, kKinds };

    std::vector<std::size_t> denseOf; ///< id -> index
    std::vector<std::string> labels;
    /// [victim][perp][kind], in the registry's column order.
    std::vector<std::vector<std::array<double, kKinds>>> cells;
    std::vector<double> ctx;

    std::size_t
    addTenant(WorkloadId id, std::string label)
    {
        const std::size_t idx = labels.size();
        if (id != kNoWorkload) {
            if (id >= denseOf.size())
                denseOf.resize(std::size_t{id} + 1, kUnknown);
            if (denseOf[id] == kUnknown)
                denseOf[id] = idx;
        }
        labels.push_back(std::move(label));
        for (auto &row : cells)
            row.push_back({0.0, 0.0, 0.0});
        cells.emplace_back(idx + 1, std::array<double, kKinds>{});
        ctx.push_back(0.0);
        return idx;
    }

    std::size_t
    indexOf(WorkloadId id) const
    {
        return id < denseOf.size() ? denseOf[id] : kUnknown;
    }

    /** The cell a charge of @p kind would land in; null if none. */
    double *
    cell(WorkloadId victim, WorkloadId perp, Kind kind)
    {
        const std::size_t v = indexOf(victim);
        const std::size_t p = indexOf(perp);
        if (v == kUnknown || p == kUnknown)
            return nullptr;
        return &cells[v][p][kind];
    }

    double
    rowSum(std::size_t v, Kind kind) const
    {
        double sum = 0.0;
        for (const auto &c : cells[v])
            sum += c[kind];
        return sum;
    }

    /** Queue wait charged to @p p by the other victims. */
    double
    charged(std::size_t p) const
    {
        double sum = 0.0;
        for (std::size_t v = 0; v < cells.size(); ++v)
            if (v != p)
                sum += cells[v][p][kWait];
        return sum;
    }

    /** Every leaf registerStats() registers, as plain formulas. */
    void
    registerStats(StatRegistry &registry) const
    {
        const std::size_t n = labels.size();
        const std::vector<std::string> slugs = uniqueStatSegments(labels);
        const char *const columns[kKinds] = {"hbm_contention_cycles",
                                             "preempt_stall_cycles",
                                             "queue_wait_us"};
        for (std::size_t v = 0; v < n; ++v) {
            const std::string base = "serve.tenant." + slugs[v] + ".attrib";
            registry.addFormula(base + ".charged_us",
                                [this, v] { return charged(v); });
            registry.addFormula(base + ".ctx_overhead_cycles",
                                [this, v] { return ctx[v]; });
            registry.addFormula(base + ".hbm_contention_cycles",
                                [this, v] { return rowSum(v, kHbm); });
            registry.addFormula(base + ".preempt_stall_cycles",
                                [this, v] { return rowSum(v, kPreempt); });
            registry.addFormula(base + ".queue_wait_us",
                                [this, v] { return rowSum(v, kWait); });
            for (std::size_t p = 0; p < n; ++p) {
                if (p == v)
                    continue;
                for (int k = 0; k < kKinds; ++k)
                    registry.addFormula(
                        base + ".from." + slugs[p] + "." + columns[k],
                        [this, v, p, k] { return cells[v][p][k]; });
            }
        }
    }
};

std::string
registryJson(const StatRegistry &registry)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        registry.writeJson(w);
    }
    return os.str();
}

TEST(Attribution, SparseCellsMatchDenseReferenceBitForBit)
{
    // Seeded random programs of charges run against the collector and
    // the dense reference; every read must match bit for bit. The
    // programs mix all three pair kinds and ctx, self-charges,
    // unknown ids and kNoWorkload, ids registered twice, tenants that
    // join between charges, and charges of 0.0, -0.0 and ones that
    // cancel a cell back to zero.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        AttributionCollector attrib;
        DenseAttribution ref;
        std::vector<WorkloadId> ids; // per tenant index
        const auto addTenant = [&] {
            const std::size_t i = ids.size();
            // Odd ids, so even ones are unknown; some tenants have
            // no id, or one an earlier tenant already holds.
            WorkloadId id = static_cast<WorkloadId>(2 * i + 1);
            if (rng.bernoulli(0.1))
                id = kNoWorkload;
            else if (i > 0 && rng.bernoulli(0.15))
                id = ids[rng.uniformInt(i)];
            // Labels collide after sanitizing now and then.
            const std::string label =
                std::string(rng.bernoulli(0.5) ? "T#" : "T_") +
                std::to_string(rng.uniformInt(2 * i + 2));
            ids.push_back(id);
            EXPECT_EQ(attrib.addTenant(id, label), i);
            EXPECT_EQ(ref.addTenant(id, label), i);
        };
        const auto pickId = [&](std::size_t near) {
            const double u = rng.uniform();
            if (u < 0.05)
                return kNoWorkload;
            if (u < 0.1)
                return static_cast<WorkloadId>(2 * rng.uniformInt(50));
            // Few perpetrators per victim, as on a fleet core; offset
            // 0 is a self-charge.
            return ids[(near + rng.uniformInt(4)) % ids.size()];
        };
        for (std::size_t i = 0, n0 = 1 + rng.uniformInt(5); i < n0; ++i)
            addTenant();
        const std::size_t steps = 100 + rng.uniformInt(500);
        for (std::size_t step = 0; step < steps; ++step) {
            if (rng.bernoulli(0.04)) {
                addTenant();
                continue;
            }
            const std::size_t near = rng.uniformInt(ids.size());
            const WorkloadId victim = pickId(near);
            const WorkloadId perp = pickId(near);
            const auto kind = static_cast<DenseAttribution::Kind>(
                rng.uniformInt(DenseAttribution::kKinds + 1));
            double *target =
                kind == DenseAttribution::kKinds
                    ? (ref.indexOf(victim) == ref.kUnknown
                           ? nullptr
                           : &ref.ctx[ref.indexOf(victim)])
                    : ref.cell(victim, perp, kind);
            const double u = rng.uniform();
            const double x = u < 0.1    ? 0.0
                             : u < 0.2  ? -0.0
                             : u < 0.35 ? (target ? -*target : 1.0)
                             : u < 0.45 ? -rng.uniform(0.0, 50.0)
                                        : rng.uniform(0.0, 1e4) / 7.0;
            switch (kind) {
            case DenseAttribution::kHbm:
                attrib.onHbmContention(victim, perp, x);
                break;
            case DenseAttribution::kPreempt:
                attrib.chargePreemptStall(victim, perp, x);
                break;
            case DenseAttribution::kWait:
                attrib.chargeQueueWait(victim, perp, x);
                break;
            default:
                attrib.chargeCtxOverhead(victim, x);
                break;
            }
            if (target != nullptr)
                *target += x;
        }

        const std::size_t n = ids.size();
        ASSERT_EQ(attrib.tenantCount(), n);
        std::vector<double> all;
        attrib.chargedUsAll(all);
        ASSERT_EQ(all.size(), n);
        for (std::size_t v = 0; v < n; ++v) {
            EXPECT_EQ(attrib.label(v), ref.labels[v]);
            EXPECT_TRUE(same(attrib.ctxOverhead(v), ref.ctx[v])) << v;
            for (std::size_t p = 0; p < n; ++p) {
                const auto &c = ref.cells[v][p];
                EXPECT_TRUE(same(attrib.hbmContention(v, p),
                                 c[DenseAttribution::kHbm]))
                    << v << ' ' << p;
                EXPECT_TRUE(same(attrib.preemptStall(v, p),
                                 c[DenseAttribution::kPreempt]))
                    << v << ' ' << p;
                EXPECT_TRUE(same(attrib.queueWait(v, p),
                                 c[DenseAttribution::kWait]))
                    << v << ' ' << p;
            }
            EXPECT_TRUE(same(attrib.totalHbmContention(v),
                             ref.rowSum(v, DenseAttribution::kHbm)))
                << v;
            EXPECT_TRUE(same(attrib.totalPreemptStall(v),
                             ref.rowSum(v, DenseAttribution::kPreempt)))
                << v;
            EXPECT_TRUE(same(attrib.totalQueueWait(v),
                             ref.rowSum(v, DenseAttribution::kWait)))
                << v;
            EXPECT_TRUE(same(attrib.chargedUs(v), ref.charged(v))) << v;
            EXPECT_TRUE(same(all[v], ref.charged(v))) << v;
        }

        StatRegistry registry;
        attrib.registerStats(registry);
        StatRegistry expected;
        ref.registerStats(expected);
        EXPECT_EQ(registry.size(), expected.size());
        EXPECT_EQ(registryJson(registry), registryJson(expected));
        registry.freeze();
        EXPECT_EQ(registryJson(registry), registryJson(expected));
    }
}

TEST(Attribution, IdsIndexDenselyAndFirstRegistrationWins)
{
    AttributionCollector attrib;
    EXPECT_EQ(attrib.addTenant(5, "A"), 0u);
    EXPECT_EQ(attrib.addTenant(2, "B"), 1u);
    // A second tenant under id 5 gets a row but not the id.
    EXPECT_EQ(attrib.addTenant(5, "C"), 2u);
    EXPECT_EQ(attrib.addTenant(kNoWorkload, "D"), 3u);
    EXPECT_EQ(attrib.tenantCount(), 4u);
    EXPECT_EQ(attrib.label(2), "C");
    attrib.chargePreemptStall(5, 2, 1.0);
    attrib.chargeQueueWait(2, 5, 4.0);
    attrib.onHbmContention(2, 5, 8.0);
    attrib.chargeCtxOverhead(5, 16.0);
    EXPECT_EQ(attrib.preemptStall(0, 1), 1.0);
    EXPECT_EQ(attrib.queueWait(1, 0), 4.0);
    EXPECT_EQ(attrib.hbmContention(1, 0), 8.0);
    EXPECT_EQ(attrib.ctxOverhead(0), 16.0);
    EXPECT_EQ(attrib.chargedUs(0), 4.0);
    // Ids in the gaps, past the end and kNoWorkload charge nobody.
    for (const WorkloadId id : {WorkloadId{0}, WorkloadId{3},
                                WorkloadId{6}, WorkloadId{1000},
                                kNoWorkload}) {
        attrib.chargePreemptStall(id, 2, 1.0);
        attrib.chargeQueueWait(2, id, 1.0);
        attrib.onHbmContention(id, 5, 1.0);
        attrib.chargeCtxOverhead(id, 1.0);
    }
    double sum = 0.0;
    for (std::size_t v = 0; v < 4; ++v) {
        sum += attrib.ctxOverhead(v) + attrib.totalPreemptStall(v) +
               attrib.totalQueueWait(v) + attrib.totalHbmContention(v);
    }
    EXPECT_EQ(sum, 29.0);
}

TEST(Attribution, CollidingSlugsGetIndexSuffixes)
{
    // The first tenant keeps the bare slug; a later one whose slug
    // is already taken gets "_<its index>" appended, checked against
    // the final slugs of the tenants before it.
    AttributionCollector attrib;
    attrib.addTenant(0, "BERT#1");
    attrib.addTenant(1, "BERT_1");
    attrib.addTenant(2, "BERT 1");
    attrib.addTenant(3, "A");
    attrib.addTenant(4, "A");
    attrib.addTenant(5, "A_4");
    StatRegistry registry;
    attrib.registerStats(registry);
    std::set<std::string> slugs;
    const std::string prefix = "serve.tenant.";
    for (const std::string &path : registry.paths())
        slugs.insert(path.substr(
            prefix.size(), path.find(".attrib") - prefix.size()));
    EXPECT_EQ(slugs, (std::set<std::string>{"BERT_1", "BERT_1_1",
                                            "BERT_1_2", "A", "A_4",
                                            "A_4_5"}));
    EXPECT_TRUE(registry.has(
        "serve.tenant.BERT_1_2.attrib.from.BERT_1_1.queue_wait_us"));
    EXPECT_FALSE(
        registry.has("serve.tenant.A_4_5.attrib.from.A_4.charged_us"));
    EXPECT_TRUE(registry.has("serve.tenant.A_4_5.attrib.charged_us"));
    // 6 tenants x (5 totals + 5 co-runners x 3 pair formulas).
    EXPECT_EQ(registry.size(), 6u * (5u + 5u * 3u));
}

TEST(Attribution, SuffixedSlugsNeverCollide)
{
    // "A_2" is taken before the third tenant's "A" becomes "A_2", so
    // that one takes a second suffix.
    EXPECT_EQ(uniqueStatSegments({"A_2", "A", "A"}),
              (std::vector<std::string>{"A_2", "A", "A_2_2"}));
    EXPECT_EQ(uniqueStatSegments({"x#1", "x 1", ""}),
              (std::vector<std::string>{"x_1", "x_1_1", "_"}));
}

TEST(Attribution, SingleTenantHasNoFromKey)
{
    // With no co-runner there is nothing to blame: the tenant gets
    // its totals and no `from` subtree, in the registry or the JSON.
    AttributionCollector attrib;
    attrib.addTenant(0, "BERT#0");
    StatRegistry registry;
    attrib.registerStats(registry);
    EXPECT_EQ(registry.size(), 5u);
    for (const std::string &path : registry.paths())
        EXPECT_EQ(path.find(".from"), std::string::npos) << path;
    std::ostringstream os;
    {
        JsonWriter w(os);
        registry.writeJson(w);
    }
    EXPECT_EQ(os.str().find("\"from\""), std::string::npos) << os.str();
}

// ---------------------------------------------------------------
// Engine integration: spans, attribution, flight recorder.
// ---------------------------------------------------------------

std::vector<TenantRequest>
pairTenants()
{
    return {TenantRequest{"MNST", 0, 1.0},
            TenantRequest{"NCF", 0, 1.0}};
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, stats);
    return os.str();
}

TEST(EngineTrace, AttributionAndTracingArePassive)
{
    ExperimentRunner plainRunner{NpuConfig{}};
    const RunStats plain = plainRunner.run(
        SchedulerKind::V10Full, pairTenants(), 8, 1,
        SchedulerOptions{});

    RequestTracer tracer;
    AttributionCollector attrib;
    FlightRecorder flight;
    SchedulerOptions so;
    so.requestTracer = &tracer;
    so.attribution = &attrib;
    so.flightRecorder = &flight;
    ExperimentRunner tracedRunner{NpuConfig{}};
    const RunStats traced = tracedRunner.run(
        SchedulerKind::V10Full, pairTenants(), 8, 1, so);

    // Scheduling is bit-identical with the whole observability
    // stack attached.
    EXPECT_EQ(statsJson(plain), statsJson(traced));
    EXPECT_GT(tracer.spanCount(), 0u);
    EXPECT_GT(flight.size(), 0u);
}

TEST(EngineTrace, AttributionChargesContendedCoRunners)
{
    RequestTracer tracer;
    AttributionCollector attrib;
    SchedulerOptions so;
    so.requestTracer = &tracer;
    so.attribution = &attrib;
    ExperimentRunner runner{NpuConfig{}};
    const RunStats stats = runner.run(SchedulerKind::V10Full,
                                      pairTenants(), 8, 1, so);
    ASSERT_FALSE(stats.aborted);
    ASSERT_EQ(attrib.tenantCount(), 2u);
    // A V10-Full pair preempts and shares HBM: someone got charged.
    double preempt = 0.0;
    double hbm = 0.0;
    for (std::size_t v = 0; v < 2; ++v) {
        preempt += attrib.totalPreemptStall(v);
        hbm += attrib.totalHbmContention(v);
    }
    EXPECT_GT(preempt, 0.0);
    EXPECT_GT(hbm, 0.0);
    // Self-contention is impossible by construction.
    EXPECT_DOUBLE_EQ(attrib.preemptStall(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(attrib.preemptStall(1, 1), 0.0);
    EXPECT_DOUBLE_EQ(attrib.hbmContention(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(attrib.hbmContention(1, 1), 0.0);
}

TEST(EngineTrace, SpansAreSeededAndSequential)
{
    RequestTracer tracer;
    SchedulerOptions so;
    so.seed = 77;
    so.requestTracer = &tracer;
    ExperimentRunner runner{NpuConfig{}};
    runner.run(SchedulerKind::V10Full, pairTenants(), 6, 1, so);
    ASSERT_GT(tracer.spanCount(), 0u);
    std::vector<std::uint64_t> lastSeq(2, 0);
    for (const RequestSpan &span : tracer.spans()) {
        ASSERT_LT(span.ctx.tenant, 2u);
        EXPECT_EQ(span.ctx.traceId,
                  traceIdFor(77, span.ctx.tenant, span.ctx.seq));
        EXPECT_GE(span.endUs, span.startUs);
        EXPECT_GE(span.startUs, span.arrivalUs);
        // Per-tenant sequence numbers are monotone in record order.
        if (span.ctx.seq > 0) {
            EXPECT_GE(span.ctx.seq, lastSeq[span.ctx.tenant]);
        }
        lastSeq[span.ctx.tenant] = span.ctx.seq;
    }
}

TEST(EngineTrace, AbortDumpsFlightRecorderIntoDiagnostics)
{
    const std::string dir =
        ::testing::TempDir() + "/v10_flight_bundle";
    FlightRecorder flight(64);
    SchedulerOptions so;
    so.flightRecorder = &flight;
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
    ASSERT_TRUE(doc.has("flight_recorder"));
    const JsonValue *fr = doc.find("flight_recorder");
    ASSERT_TRUE(fr->isObject());
    EXPECT_EQ(fr->find("capacity")->number, 64.0);
    ASSERT_FALSE(fr->find("events")->array.empty());
    // The abort itself is the last thing the ring saw.
    const JsonValue &last = fr->find("events")->array.back();
    EXPECT_EQ(last.find("kind")->str, "abort");
}

} // namespace
} // namespace v10
