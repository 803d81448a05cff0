/**
 * @file
 * Microbenchmarks of the observability layer: LogHistogram recording
 * and quantile queries vs the sort-based SampleSet it replaced, span
 * emission/rendering throughput, and the tracing overhead of an
 * end-to-end traced serve run vs an untraced one (the ISSUE bound:
 * tracing off must cost <= 3%; here the traced/untraced pair makes
 * the delta directly measurable). Not wired into the CI perf gate —
 * run ad hoc, optionally with --perf-json=<path>.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "perf_json_main.h"
#include "serve/cluster_manager.h"
#include "trace/request_tracer.h"
#include "trace/slo_monitor.h"
#include "trace/trace_context.h"

namespace {

using namespace v10;

/** 100k adds + the report quantiles, HDR-style histogram. */
void
BM_LogHistogramAddQuantiles(benchmark::State &state)
{
    Rng rng(7);
    std::uint64_t items = 0;
    for (auto _ : state) {
        LogHistogram h;
        for (int i = 0; i < 100000; ++i)
            h.add(rng.exponential(250.0));
        double sink = 0.0;
        for (double p : {50.0, 99.0, 99.9})
            sink += h.percentile(p);
        benchmark::DoNotOptimize(sink);
        items += 100000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_LogHistogramAddQuantiles);

/** The sort-based baseline the histogram replaced. */
void
BM_SampleSetAddQuantiles(benchmark::State &state)
{
    Rng rng(7);
    std::uint64_t items = 0;
    for (auto _ : state) {
        SampleSet s;
        for (int i = 0; i < 100000; ++i)
            s.add(rng.exponential(250.0));
        double sink = 0.0;
        for (double p : {50.0, 99.0, 99.9})
            sink += s.percentile(p);
        benchmark::DoNotOptimize(sink);
        items += 100000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SampleSetAddQuantiles);

/** Trace-ID derivation + sampling decision per request. */
void
BM_TraceIdDerive(benchmark::State &state)
{
    const TraceSampler sampler{8};
    std::uint64_t kept = 0;
    std::uint64_t items = 0;
    for (auto _ : state) {
        for (std::uint64_t seq = 0; seq < 100000; ++seq)
            kept += sampler.sampled(traceIdFor(11, 3, seq)) ? 1 : 0;
        items += 100000;
    }
    benchmark::DoNotOptimize(kept);
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_TraceIdDerive);

/** Span record + JSONL render, 10k spans per iteration. */
void
BM_SpanRecordRender(benchmark::State &state)
{
    std::uint64_t items = 0;
    for (auto _ : state) {
        RequestTracer tracer;
        for (std::uint64_t i = 0; i < 10000; ++i) {
            RequestSpan s;
            s.ctx = TraceContext::make(1, i % 32, i);
            s.tenant = "BERT#0";
            s.arrivalUs = static_cast<double>(i);
            s.startUs = s.arrivalUs + 3.0;
            s.endUs = s.startUs + 150.0;
            s.soloUs = 140.0;
            tracer.add(std::move(s));
        }
        std::ostringstream os;
        tracer.writeJsonl(os);
        benchmark::DoNotOptimize(os.str().size());
        items += 10000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SpanRecordRender);

/** SLO-monitor record + burn query, 100k completions. */
void
BM_SloMonitorRecord(benchmark::State &state)
{
    std::uint64_t items = 0;
    for (auto _ : state) {
        SloMonitor monitor(32, 2.0);
        for (int i = 0; i < 100000; ++i)
            monitor.record(static_cast<std::size_t>(i) % 32,
                           2.0 * static_cast<double>(i) / 100000.0,
                           i % 50 == 0);
        double sink = 0.0;
        for (std::size_t t = 0; t < 32; ++t)
            sink += monitor.status(t).longBurn;
        benchmark::DoNotOptimize(sink);
        items += 100000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SloMonitorRecord);

/** A mid-size serving scenario, optionally with a tracer attached. */
ClusterManager
traceScenario(bool traced, RequestTracer *tracer)
{
    ServeConfig cfg;
    cfg.numCores = 8;
    cfg.durationSec = 1.0;
    cfg.seed = 11;
    ClusterManager manager(cfg);
    for (int i = 0; i < 32; ++i) {
        ServeTenant t;
        t.model = "NCF";
        t.name.push_back('t');
        t.name += std::to_string(i);
        t.arrival.rps = 1200.0;
        t.serviceUsOverride = 150.0;
        t.slo.latencyTargetUs = 3000.0;
        if (!manager.addTenant(std::move(t)))
            panic("bench_trace: addTenant failed");
    }
    if (traced)
        manager.setRequestTracer(tracer);
    return manager;
}

/** End-to-end serve run without tracing (the overhead baseline). */
void
BM_ServeUntraced(benchmark::State &state)
{
    std::uint64_t completed = 0;
    for (auto _ : state) {
        ClusterManager manager = traceScenario(false, nullptr);
        auto report = manager.run();
        if (!report.ok())
            state.SkipWithError("run failed");
        else
            completed += report.value().completed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_ServeUntraced)->Unit(benchmark::kMillisecond);

/** The same run with full (1/1) span tracing attached. */
void
BM_ServeTraced(benchmark::State &state)
{
    std::uint64_t completed = 0;
    for (auto _ : state) {
        RequestTracer tracer;
        ClusterManager manager = traceScenario(true, &tracer);
        auto report = manager.run();
        if (!report.ok())
            state.SkipWithError("run failed");
        else
            completed += report.value().completed;
        benchmark::DoNotOptimize(tracer.spanCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_ServeTraced)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return v10::bench::perfJsonMain(argc, argv);
}
