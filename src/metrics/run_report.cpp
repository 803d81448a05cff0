#include "metrics/run_report.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/json.h"
#include "common/log.h"
#include "metrics/interval_sampler.h"
#include "metrics/run_stats.h"
#include "metrics/stat_registry.h"

namespace v10 {

namespace {

void
writeManifest(JsonWriter &w, const RunManifest &m)
{
    w.beginObject();
    w.kv("tool", m.tool);
    w.kv("scheduler", m.scheduler);
    w.kv("config", m.configSummary);
    w.key("workloads");
    w.beginArray();
    for (const auto &label : m.workloads)
        w.value(label);
    w.endArray();
    w.kv("requests", m.requests);
    w.kv("seed", m.seed);
    w.kv("simulated_cycles", m.simulatedCycles);
    w.kv("wall_seconds", m.wallSeconds);
    w.kv("sample_interval", m.sampleInterval);
    w.endObject();
}

void
writeWorkload(JsonWriter &w, const WorkloadRunStats &t)
{
    w.beginObject();
    w.kv("label", t.label);
    w.kv("requests", t.requests);
    w.kv("latency_avg_us", t.avgLatencyUs);
    w.kv("latency_p95_us", t.p95LatencyUs);
    w.kv("requests_per_sec", t.requestsPerSec);
    w.kv("sa_compute_cycles", t.saComputeCycles);
    w.kv("vu_compute_cycles", t.vuComputeCycles);
    w.kv("overhead_cycles", t.overheadCycles);
    w.kv("preemptions", t.preemptions);
    w.kv("sa_util", t.saUtil);
    w.kv("vu_util", t.vuUtil);
    w.kv("normalized_progress", t.normalizedProgress);
    w.kv("ctx_overhead_frac", t.ctxOverheadFrac);
    w.kv("preempts_per_request", t.preemptsPerRequest());
    w.kv("quarantined", t.quarantined);
    w.kv("fault_strikes",
         static_cast<std::uint64_t>(t.faultStrikes));
    w.endObject();
}

} // namespace

void
writeRunStatsJson(JsonWriter &w, const RunStats &s)
{
    w.beginObject();
    w.kv("window_cycles", s.windowCycles);
    w.kv("window_seconds", s.windowSeconds);
    w.kv("sa_util", s.saUtil);
    w.kv("vu_util", s.vuUtil);
    w.kv("combined_util", s.combinedUtil);
    w.kv("hbm_util", s.hbmUtil);
    w.kv("flops_util", s.flopsUtil);
    w.kv("overlap_both_frac", s.overlapBothFrac);
    w.kv("sa_only_frac", s.saOnlyFrac);
    w.kv("vu_only_frac", s.vuOnlyFrac);
    w.kv("idle_frac", s.idleFrac);
    w.kv("stp", s.stp());
    w.kv("antt", s.antt());
    w.kv("fairness", s.fairness());
    w.kv("worst_progress", s.worstProgress());
    w.kv("aborted", s.aborted);
    w.kv("abort_reason", s.abortReason);
    w.kv("faults_injected", s.faultsInjected);
    w.kv("dma_retries", s.dmaRetries);
    w.kv("sa_replays", s.saReplays);
    w.kv("quarantined_tenants",
         static_cast<std::uint64_t>(s.quarantinedTenants));
    w.key("tenants");
    w.beginArray();
    for (const auto &t : s.workloads)
        writeWorkload(w, t);
    w.endArray();
    w.endObject();
}

namespace {

void
writeSamples(JsonWriter &w, const IntervalSampler *sampler)
{
    if (!sampler || sampler->rowCount() == 0) {
        w.valueNull();
        return;
    }
    w.beginObject();
    w.kv("interval_cycles", sampler->interval());
    w.key("probes");
    w.beginArray();
    for (const auto &name : sampler->probeNames())
        w.value(name);
    w.endArray();
    w.key("rows");
    w.beginArray();
    const std::size_t width = sampler->probeCount();
    auto row = sampler->rows();
    w.numberRows(sampler->rowCount(), width,
                 [&row, width](std::size_t, double *cells) {
                     row.next();
                     std::copy_n(row.values(), width, cells);
                     return row.cycle();
                 });
    w.endArray();
    w.endObject();
}

} // namespace

void
writeRunReportJson(std::ostream &os, const RunManifest &manifest,
                   const RunStats &stats, const StatRegistry *registry,
                   const IntervalSampler *sampler)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("manifest");
    writeManifest(w, manifest);
    w.key("run");
    writeRunStatsJson(w, stats);
    w.key("registry");
    if (registry)
        registry->writeJson(w);
    else
        w.valueNull();
    w.key("samples");
    writeSamples(w, sampler);
    w.endObject();
    os << '\n';
}

Status
writeRunReportJsonFile(const std::string &path,
                       const RunManifest &manifest,
                       const RunStats &stats,
                       const StatRegistry *registry,
                       const IntervalSampler *sampler)
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open stats JSON for writing", path);
    writeRunReportJson(os, manifest, stats, registry, sampler);
    os.flush();
    if (!os)
        return parseError("short write on stats JSON", path);
    return Status::ok();
}

} // namespace v10
