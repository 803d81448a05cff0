/**
 * @file
 * Microbenchmarks of the fleet-scale serving layer: arrival-stream
 * generation, end-to-end ClusterManager runs at the 100-tenant /
 * 100k-request scale the acceptance scenario uses, and the
 * attribution matrix's stats-json. Run with --perf-json=<path> to
 * emit the machine-readable summary the CI perf-smoke job diffs
 * against bench/baselines/BENCH_serving.json.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/json.h"
#include "metrics/stat_registry.h"
#include "perf_json_main.h"
#include "serve/arrival.h"
#include "serve/cluster_manager.h"
#include "trace/attribution.h"

namespace {

using namespace v10;

/** Generate one 100k-arrival Poisson stream. */
void
BM_ArrivalPoisson100k(benchmark::State &state)
{
    ArrivalSpec spec;
    spec.rps = 100000.0;
    std::uint64_t arrivals = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        ArrivalProcess process(spec, seed++);
        arrivals += process.generate(1.0).size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
}
BENCHMARK(BM_ArrivalPoisson100k);

/** Thinning pays per candidate: the diurnal generator at 100k. */
void
BM_ArrivalDiurnal100k(benchmark::State &state)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.rps = 100000.0;
    spec.amplitude = 0.7;
    spec.periodSec = 0.1;
    std::uint64_t arrivals = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        ArrivalProcess process(spec, seed++);
        arrivals += process.generate(1.0).size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
}
BENCHMARK(BM_ArrivalDiurnal100k);

/** The acceptance scenario: 100 tenants, ~100k requests, serial
 * vs fanned across the executor. */
void
serve100k(benchmark::State &state, std::size_t jobs)
{
    std::uint64_t completed = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        ServeConfig cfg;
        cfg.numCores = 16;
        cfg.durationSec = 1.0;
        cfg.seed = seed++;
        cfg.queueCapacity = 128;
        cfg.jobs = jobs;
        ClusterManager manager(cfg);
        for (int i = 0; i < 100; ++i) {
            ServeTenant t;
            t.model = "BERT";
            t.name.push_back('t');
            t.name += std::to_string(i);
            t.arrival.rps = 1000.0;
            t.serviceUsOverride = 140.0; // rho ~ 0.875 per core
            if (!manager.addTenant(std::move(t)))
                state.SkipWithError("addTenant failed");
        }
        auto report = manager.run();
        if (!report.ok())
            state.SkipWithError("run failed");
        else
            completed += report.value().completed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}

void
BM_Serve100kSerial(benchmark::State &state)
{
    serve100k(state, 1);
}
BENCHMARK(BM_Serve100kSerial)->Unit(benchmark::kMillisecond);

void
BM_Serve100kJobs4(benchmark::State &state)
{
    serve100k(state, 4);
}
BENCHMARK(BM_Serve100kJobs4)->Unit(benchmark::kMillisecond);

/** Bursty traffic stresses the queue churn worst. */
void
BM_ServeBursty(benchmark::State &state)
{
    std::uint64_t completed = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        ServeConfig cfg;
        cfg.numCores = 8;
        cfg.durationSec = 2.0;
        cfg.seed = seed++;
        cfg.queueCapacity = 64;
        ClusterManager manager(cfg);
        for (int i = 0; i < 32; ++i) {
            ServeTenant t;
            t.model = "NCF";
            t.name.push_back('b');
            t.name += std::to_string(i);
            t.arrival.kind = ArrivalKind::Bursty;
            t.arrival.rps = 1500.0;
            t.arrival.meanOnSec = 0.05;
            t.arrival.meanOffSec = 0.15;
            t.serviceUsOverride = 120.0;
            if (!manager.addTenant(std::move(t)))
                state.SkipWithError("addTenant failed");
        }
        auto report = manager.run();
        if (!report.ok())
            state.SkipWithError("run failed");
        else
            completed += report.value().completed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_ServeBursty)->Unit(benchmark::kMillisecond);

/** A stream buffer that takes every byte and keeps none. */
class NullBuffer : public std::streambuf
{
  protected:
    int_type overflow(int_type c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** The blame matrix of a state.range(0)-tenant fleet in a
 * stats-json: register it in a fresh registry and write the JSON.
 * 500 is the perfbench fleet-chaos size. */
void
BM_AttributionStatsJson(benchmark::State &state)
{
    const auto n = static_cast<WorkloadId>(state.range(0));
    AttributionCollector attribution;
    for (WorkloadId i = 0; i < n; ++i)
        attribution.addTenant(i, "T#" + std::to_string(i));
    // A sparse matrix, as in a real fleet: each tenant blames a few
    // neighbours.
    for (WorkloadId v = 0; v < n; ++v) {
        attribution.chargeQueueWait(v, (v + 1) % n, 12.5 * v);
        attribution.onHbmContention(v, (v + 7) % n, 3.0 + v);
    }
    NullBuffer sink;
    std::ostream os(&sink);
    std::uint64_t leaves = 0;
    for (auto _ : state) {
        StatRegistry registry;
        attribution.registerStats(registry);
        JsonWriter w(os);
        registry.writeJson(w);
        leaves += registry.size();
        benchmark::DoNotOptimize(leaves);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(leaves));
}
BENCHMARK(BM_AttributionStatsJson)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

/** The antagonist detector's per-epoch read: every tenant's
 * chargedUs() column sum over a state.range(0)-tenant fleet whose
 * tenants each wait behind about 7 co-residents of their core. */
void
BM_AttributionEpochSweep(benchmark::State &state)
{
    const auto n = static_cast<WorkloadId>(state.range(0));
    constexpr WorkloadId kCoResidents = 8;
    AttributionCollector attribution;
    for (WorkloadId i = 0; i < n; ++i)
        attribution.addTenant(i, "T#" + std::to_string(i));
    for (WorkloadId v = 0; v < n; ++v) {
        const WorkloadId core = v / kCoResidents * kCoResidents;
        for (WorkloadId p = core; p < core + kCoResidents && p < n; ++p)
            attribution.chargeQueueWait(v, p, 1.5 + v + p);
    }
    std::vector<double> charged;
    for (auto _ : state) {
        attribution.chargedUsAll(charged);
        benchmark::DoNotOptimize(charged.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK(BM_AttributionEpochSweep)->Arg(1000);

} // namespace

int
main(int argc, char **argv)
{
    return v10::bench::perfJsonMain(argc, argv);
}
