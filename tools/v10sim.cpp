/**
 * @file
 * v10sim — command-line front end to the V10 multi-tenant NPU
 * simulator.
 *
 *   v10sim zoo
 *   v10sim profile --model BERT [--batch 32]
 *   v10sim run --models BERT,NCF [--scheduler V10-Full]
 *              [--priorities 0.7,0.3] [--rps 30,120] [--requests 25]
 *              [--slice 32768] [--sas 1 --vus 1] [--vmem-mb 32]
 *   v10sim advise --models BERT,NCF,RsNt,DLRM [--cores 4]
 *   v10sim serve [--tenants 100] [--cores 16] [--duration secs]
 *   v10sim trace --model DLRM [--batch 32] [--out trace.txt]
 *   v10sim gen-traces [--out dir]
 *   v10sim report [--out report.md] [--jobs N|auto]
 *   v10sim figure --id fig18 [--quick 1] [--csv 1] [--jobs N|auto]
 *   v10sim validate --trace trace.txt [--fault-plan plan.json]
 *
 * Each subcommand accepts a fixed set of flags (see commands());
 * --log-level is accepted everywhere. Exit codes: 0 success, 1
 * runtime failure (including a gracefully aborted simulation), 2
 * usage or parse error, an unknown flag included.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/parallel_executor.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/table.h"
#include "metrics/interval_sampler.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "serve/cluster_manager.h"
#include "serve/serving_report.h"
#include "sim/fault_plan.h"
#include "trace/attribution.h"
#include "trace/flight_recorder.h"
#include "trace/request_tracer.h"
#include "trace/trace_context.h"
#include "v10/experiment.h"
#include "v10/figures.h"
#include "v10/npu_cluster.h"
#include "v10/profiler.h"
#include "v10/report.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"
#include "workload/op_graph.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace {

using namespace v10;

/** Bad flags / unparsable input: report and exit with code 2. */
template <typename... Ts>
[[noreturn]] void
usageError(Ts &&...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    std::fprintf(stderr, "v10sim: %s\n", os.str().c_str());
    std::exit(kExitUsage);
}

/** Exit 2 with the error of a failed input or output Status. */
void
orUsageError(const Status &s)
{
    if (!s)
        usageError(s.error().toString());
}

/** The value of a parse @p r, or exit 2 with its error. */
template <typename T>
T
orUsageError(Result<T> r)
{
    if (!r)
        usageError(r.error().toString());
    return r.take();
}

/** Simple --key value argument map. */
struct Args
{
    std::map<std::string, std::string> kv;

    /**
     * Parse argv[first..] as --key value pairs. A flag outside
     * @p accepted (and other than --log-level, which every command
     * takes) is a usage error naming the flag, so a misspelled
     * option never silently falls back to its default.
     */
    static Args
    parse(int argc, char **argv, int first, const std::string &cmd,
          const std::set<std::string> &accepted)
    {
        Args args;
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (!startsWith(key, "--"))
                usageError("expected --option, got '", key, "'");
            key = key.substr(2);
            if (key != "log-level" && accepted.count(key) == 0)
                usageError(cmd, ": unknown flag --", key);
            if (i + 1 >= argc)
                usageError("--", key, " needs a value");
            args.kv[key] = argv[++i];
        }
        return args;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = kv.find(key);
        return it == kv.end() ? fallback : it->second;
    }

    bool has(const std::string &key) const { return kv.count(key); }

    /**
     * Strict numeric flag accessors: unlike atoi/atof, trailing
     * garbage and overflow are usage errors (exit 2), not silently
     * truncated values.
     */
    std::uint64_t
    getUint(const std::string &key, const std::string &fallback) const
    {
        const std::string raw = get(key, fallback);
        const auto v = parseUint64(raw);
        if (!v)
            usageError("--", key,
                       " expects a non-negative integer, got '", raw,
                       "'");
        return *v;
    }

    std::int64_t
    getInt(const std::string &key, const std::string &fallback) const
    {
        const std::string raw = get(key, fallback);
        const auto v = parseInt64(raw);
        if (!v)
            usageError("--", key, " expects an integer, got '", raw,
                       "'");
        return *v;
    }

    double
    getDouble(const std::string &key,
              const std::string &fallback) const
    {
        const std::string raw = get(key, fallback);
        const auto v = parseDouble(raw);
        if (!v)
            usageError("--", key, " expects a number, got '", raw,
                       "'");
        return *v;
    }

    /**
     * Strictly positive finite number — rates, utilizations, and
     * anything that lands in a denominator. Zero and negatives are
     * usage errors with the flag named, same as trailing garbage.
     */
    double
    getPositiveDouble(const std::string &key,
                      const std::string &fallback) const
    {
        const double v = getDouble(key, fallback);
        if (!std::isfinite(v) || v <= 0.0)
            usageError("--", key,
                       " expects a positive number, got '",
                       get(key, fallback), "'");
        return v;
    }

    /** --jobs N | auto (default 1 = serial). */
    std::size_t
    jobs() const
    {
        return has("jobs") ? orUsageError(ParallelExecutor::parseJobs(
                                 get("jobs", "1")))
                           : 1;
    }
};

/** One element of a comma-separated numeric list flag. */
double
listDouble(const std::string &raw, const char *flag)
{
    const auto v = parseDouble(raw);
    if (!v)
        usageError("--", flag, ": bad number '", raw, "'");
    return *v;
}

NpuConfig
configFromArgs(const Args &args)
{
    NpuConfig cfg;
    if (args.has("sas") || args.has("vus")) {
        const auto sas =
            static_cast<std::uint32_t>(args.getUint("sas", "1"));
        const auto vus =
            static_cast<std::uint32_t>(args.getUint("vus", "1"));
        cfg = cfg.scaledForFus(sas, vus);
    }
    if (args.has("vmem-mb"))
        cfg.vmemBytes = static_cast<Bytes>(
                            args.getUint("vmem-mb", "32"))
                        << 20;
    if (args.has("slice"))
        cfg.timeSlice =
            static_cast<Cycles>(args.getUint("slice", "32768"));
    const Status ok = cfg.check();
    if (!ok)
        usageError("bad NPU configuration: ", ok.error().message,
                   " (field '", ok.error().token, "')");
    return cfg;
}

/** Lookup that turns an unknown model into a usage error. */
const ModelProfile &
modelOrUsageError(const std::string &name)
{
    const ModelProfile *m = tryFindModel(name);
    if (m == nullptr)
        usageError("unknown model '", name,
                   "' (see 'v10sim zoo' for the model list)");
    return *m;
}

SchedulerKind
schedulerFromArgs(const Args &args)
{
    const std::string name = args.get("scheduler", "V10-Full");
    const auto kind = schedulerKindFromName(name);
    if (!kind)
        usageError("unknown scheduler '", name,
                   "' (expected PMT|V10-Base|V10-Fair|V10-Full|"
                   "PREMA)");
    return *kind;
}

/** Load the --@p fileFlag JSON plan into @p plan, then hand the
 * --@p specFlag plan to @p merge; whether either flag was given. */
template <typename Plan, typename Merge>
bool
planFromArgs(const Args &args, const std::string &fileFlag,
             const std::string &specFlag, Plan &plan, Merge merge)
{
    if (args.has(fileFlag))
        plan = orUsageError(Plan::fromJsonFile(args.get(fileFlag, "")));
    if (args.has(specFlag))
        merge(orUsageError(Plan::parse(args.get(specFlag, ""))));
    return args.has(fileFlag) || args.has(specFlag);
}

/** --fault-plan, then the --faults sites merged into @p plan. */
bool
faultPlanFromArgs(const Args &args, FaultPlan &plan)
{
    return planFromArgs(args, "fault-plan", "faults", plan,
                        [&](const FaultPlan &spec) {
                            for (const FaultSite &site : spec.sites())
                                plan.add(site);
                        });
}

/**
 * --faults/--fault-plan/--fault-seed plus the degradation knobs.
 * The returned plan must stay alive while @p res is in use.
 */
ResilienceOptions
resilienceFromArgs(const Args &args, FaultPlan &plan)
{
    ResilienceOptions res;
    if (faultPlanFromArgs(args, plan))
        res.faults = &plan;
    res.faultSeed = args.getUint("fault-seed", "0");
    res.watchdogInterval =
        static_cast<Cycles>(args.getUint("watchdog", "0"));
    res.cycleBudget =
        static_cast<Cycles>(args.getUint("cycle-budget", "0"));
    res.quarantineThreshold =
        static_cast<std::uint32_t>(args.getUint("quarantine", "0"));
    res.maxDmaRetries = static_cast<std::uint32_t>(
        args.getUint("max-dma-retries", "3"));
    res.diagnosticDir = args.get("diag-dir", "");
    return res;
}

/**
 * Serve-layer resilience flags (docs/RESILIENCE.md): the churn
 * schedule, injected antagonists, the adaptive admission gate, and
 * the detector / quarantine-ladder knobs. Reuses the --faults /
 * --fault-plan grammar for serve-granularity fault injection; the
 * plan parsed into @p faults must stay alive while @p cfg is in use.
 */
void
serveResilienceFromArgs(const Args &args, ServeConfig &cfg,
                        FaultPlan &faults)
{
    planFromArgs(args, "churn-plan", "churn", cfg.churn,
                 [&](const ChurnPlan &spec) {
                     for (const ChurnEvent &event : spec.events())
                         cfg.churn.add(event);
                 });
    planFromArgs(args, "antagonist-plan", "antagonist",
                 cfg.antagonists, [&](const AntagonistPlan &spec) {
                     for (const AntagonistProfile &p : spec.profiles())
                         cfg.antagonists.add(p);
                 });

    if (args.get("admission", "0") != "0") {
        cfg.admission.enabled = true;
        cfg.admission.headroom =
            args.getPositiveDouble("admit-headroom", "1.25");
        cfg.admission.decrease =
            args.getPositiveDouble("admit-decrease", "0.5");
        cfg.admission.increase =
            args.getPositiveDouble("admit-increase", "0.1");
        cfg.admission.minRateFrac =
            args.getPositiveDouble("admit-floor", "0.05");
        cfg.admission.burstSec =
            args.getPositiveDouble("admit-burst", "0.25");
    }

    cfg.detector.hiScore =
        args.getPositiveDouble("detect-hi", "0.75");
    cfg.detector.loScore =
        args.getPositiveDouble("detect-lo", "0.25");
    cfg.ladder.throttleStrikes = static_cast<std::uint32_t>(
        args.getUint("strikes-throttle", "2"));
    cfg.ladder.isolateStrikes = static_cast<std::uint32_t>(
        args.getUint("strikes-isolate", "4"));
    cfg.ladder.evictStrikes = static_cast<std::uint32_t>(
        args.getUint("strikes-evict", "8"));
    cfg.ladder.throttleFactor =
        args.getPositiveDouble("throttle-factor", "0.25");
    cfg.ladder.recoveryEpochs = static_cast<std::uint32_t>(
        args.getUint("recovery-epochs", "4"));

    // A serve plan counts only when it holds sites.
    faultPlanFromArgs(args, faults);
    if (!faults.empty())
        cfg.faults = &faults;
}

/**
 * Build the optional request tracer from --trace-out /
 * --trace-sample (nullptr when neither flag is present). Tracing is
 * passive: scheduling is bit-identical with a tracer attached.
 */
std::unique_ptr<RequestTracer>
tracerFromArgs(const Args &args)
{
    if (!args.has("trace-out") && !args.has("trace-sample"))
        return nullptr;
    const std::uint64_t sample =
        args.has("trace-sample")
            ? orUsageError(parseTraceSample(args.get("trace-sample", "1")))
            : 1;
    return std::make_unique<RequestTracer>(sample);
}

/** Write the span JSONL to --trace-out and report the count. */
void
writeTraceOut(const Args &args, const RequestTracer &tracer)
{
    if (!args.has("trace-out"))
        return;
    const std::string path = args.get("trace-out", "");
    orUsageError(tracer.writeJsonlFile(path));
    std::printf("trace: %zu spans -> %s\n", tracer.spanCount(),
                path.c_str());
}

int
cmdZoo()
{
    TextTable table({"Name", "Abbrev", "Domain", "Ref batch",
                     "SA op (us)", "VU op (us)"});
    for (const ModelProfile &m : modelZoo()) {
        table.addRow();
        table.cell(m.name);
        table.cell(m.abbrev);
        table.cell(m.domain);
        table.cell(static_cast<long long>(m.refBatch));
        table.cell(m.saOpUsRef, 2);
        table.cell(m.vuOpUsRef, 2);
    }
    table.print();
    return 0;
}

int
cmdProfile(const Args &args)
{
    const std::string model = args.get("model", "");
    if (model.empty())
        usageError("profile: --model is required");
    const NpuConfig cfg = configFromArgs(args);
    const ModelProfile &m = modelOrUsageError(model);
    const int batch = static_cast<int>(
        args.getInt("batch", std::to_string(m.refBatch)));
    const SingleProfile p = profileSingle(cfg, m, batch, 8);
    if (p.oom) {
        std::printf("%s@%d does not fit the HBM region (%s)\n",
                    m.abbrev.c_str(), batch,
                    formatBytes(kHbmRegionBytes).c_str());
        return 1;
    }
    std::printf("%s @ batch %d on %s\n", m.name.c_str(), batch,
                cfg.summary().c_str());
    std::printf("  FLOPS utilization   %s\n",
                formatPct(p.flopsUtil).c_str());
    std::printf("  MXU / VPU temporal  %s / %s\n",
                formatPct(p.mxuUtil).c_str(),
                formatPct(p.vpuUtil).c_str());
    std::printf("  HBM bandwidth       %s\n",
                formatPct(p.hbmUtil).c_str());
    std::printf("  op intensity        %.2f FLOPs/byte\n",
                p.opIntensity);
    std::printf("  achieved            %.3f TFLOP/s\n", p.tflops);
    std::printf("  request latency     %.1f us (%.1f req/s)\n",
                p.requestLatencyUs, p.requestsPerSec);
    std::printf("  ideal DAG speedup   %.3fx\n", p.idealSpeedup);
    std::printf("  mean SA / VU op     %.1f / %.1f us\n",
                p.meanSaOpUs, p.meanVuOpUs);
    return 0;
}

/**
 * The validated run cell from --models, --priorities, --rps,
 * --requests and --scheduler, with the --faults and degradation
 * knobs in its options; @p plan must outlive the run.
 */
SweepCell
runCellFromArgs(const Args &args, FaultPlan &plan)
{
    const auto models = split(args.get("models", ""), ',');
    if (models.empty() || models[0].empty())
        usageError("run: --models A,B[,C...] is required");
    for (const std::string &m : models)
        modelOrUsageError(m);
    const auto priorities =
        args.has("priorities")
            ? split(args.get("priorities", ""), ',')
            : std::vector<std::string>{};
    const auto rps = args.has("rps")
                         ? split(args.get("rps", ""), ',')
                         : std::vector<std::string>{};
    SweepCell cell;
    cell.kind = schedulerFromArgs(args);
    cell.options.resilience = resilienceFromArgs(args, plan);
    cell.requests = args.getUint("requests", "25");
    cell.label = "run";
    for (std::size_t i = 0; i < models.size(); ++i) {
        TenantRequest req;
        req.model = models[i];
        req.priority = i < priorities.size()
                           ? listDouble(priorities[i], "priorities")
                           : 1.0;
        req.arrivalRps =
            i < rps.size() ? listDouble(rps[i], "rps") : 0.0;
        cell.tenants.push_back(req);
    }
    orUsageError(validateSweepCell(cell, 0));
    return cell;
}

/** The observers the flags of run or serve ask for (null when not
 * asked; serve has no flight recorder). */
struct Observers
{
    std::unique_ptr<StatRegistry> registry;
    std::unique_ptr<AttributionCollector> attribution;
    std::unique_ptr<RequestTracer> tracer;
    std::unique_ptr<TimelineTracer> timeline;
    std::unique_ptr<IntervalSampler> sampler;
    std::unique_ptr<FlightRecorder> flight;
};

/**
 * Create the observers and attach them to @p options: the registry
 * feeds --stats-json, the sampler --samples-csv and the timeline's
 * counter tracks. Passive: the run is bit-identical with or without
 * them (docs/OBSERVABILITY.md).
 */
Observers
attachRunObservers(const Args &args, const NpuConfig &cfg,
                   SchedulerOptions &options)
{
    Observers obs;
    if (args.has("stats-json"))
        obs.registry = std::make_unique<StatRegistry>();
    if (args.has("sample-interval") || args.has("samples-csv")) {
        const auto interval = static_cast<Cycles>(
            args.getUint("sample-interval", "10000"));
        if (interval == 0)
            usageError("--sample-interval expects a positive integer, "
                       "got '0'");
        obs.sampler = std::make_unique<IntervalSampler>(interval);
    }
    obs.tracer = tracerFromArgs(args);
    if (obs.tracer && obs.registry)
        obs.attribution = std::make_unique<AttributionCollector>();
    if (args.has("timeline")) {
        obs.timeline =
            std::make_unique<TimelineTracer>(cfg.freqGHz * 1e3);
        if (obs.sampler)
            obs.timeline->attachSampler(obs.sampler.get());
        if (obs.tracer)
            obs.timeline->attachSpans(obs.tracer.get());
    }
    if (!options.resilience.diagnosticDir.empty())
        obs.flight = std::make_unique<FlightRecorder>();
    options.stats = obs.registry.get();
    options.sampler = obs.sampler.get();
    options.requestTracer = obs.tracer.get();
    options.attribution = obs.attribution.get();
    options.timeline = obs.timeline.get();
    options.flightRecorder = obs.flight.get();
    return obs;
}

/** Write --trace-out, --timeline, --stats-json and --samples-csv. */
void
writeRunOutputs(const Args &args, const NpuConfig &cfg,
                const SweepCell &cell, const RunStats &stats,
                double wallSeconds, const Observers &obs)
{
    if (obs.tracer)
        writeTraceOut(args, *obs.tracer);
    if (obs.timeline) {
        const std::string path = args.get("timeline", "");
        orUsageError(obs.timeline->writeChromeTraceFile(path));
        std::printf("timeline: %zu slices (%zu preemptions) -> "
                    "%s (open in chrome://tracing)\n\n",
                    obs.timeline->sliceCount(),
                    obs.timeline->preemptionCount(), path.c_str());
    }
    if (obs.registry) {
        RunManifest manifest;
        manifest.tool = "v10sim run";
        manifest.scheduler = args.get("scheduler", "V10-Full");
        manifest.configSummary = cfg.summary();
        for (const auto &w : stats.workloads)
            manifest.workloads.push_back(w.label);
        manifest.requests = cell.requests;
        manifest.seed = 1;
        manifest.simulatedCycles = stats.windowCycles;
        manifest.wallSeconds = wallSeconds;
        manifest.sampleInterval =
            obs.sampler ? obs.sampler->interval() : 0;
        const std::string path = args.get("stats-json", "");
        orUsageError(writeRunReportJsonFile(path, manifest, stats,
                                            obs.registry.get(),
                                            obs.sampler.get()));
        std::printf("stats: %zu registry entries -> %s\n",
                    obs.registry->size(), path.c_str());
    }
    if (obs.sampler && args.has("samples-csv")) {
        const std::string path = args.get("samples-csv", "");
        orUsageError(obs.sampler->writeCsvFile(path));
        std::printf("samples: %zu rows x %zu probes -> %s\n",
                    obs.sampler->rowCount(), obs.sampler->probeCount(),
                    path.c_str());
    }
}

/** The utilization line, the tenant table, the fault line and
 * (--detail 1) the full statistics dump with the registry's lines. */
void
printRunReport(const Args &args, const NpuConfig &cfg,
               const RunStats &stats, const StatRegistry *registry)
{
    std::printf("%s on %s\n\n",
                args.get("scheduler", "V10-Full").c_str(),
                cfg.summary().c_str());
    std::printf("SA %s  VU %s  HBM %s  overlap %s  STP %.2f\n\n",
                formatPct(stats.saUtil).c_str(),
                formatPct(stats.vuUtil).c_str(),
                formatPct(stats.hbmUtil).c_str(),
                formatPct(stats.overlapBothFrac).c_str(),
                stats.stp());
    TextTable table({"tenant", "requests", "avg lat (us)",
                     "p95 lat (us)", "req/s", "progress",
                     "preempts/req"});
    for (const auto &w : stats.workloads) {
        table.addRow();
        table.cell(w.label);
        table.cell(static_cast<long long>(w.requests));
        table.cell(w.avgLatencyUs, 1);
        table.cell(w.p95LatencyUs, 1);
        table.cell(w.requestsPerSec, 1);
        table.cell(w.normalizedProgress, 2);
        table.cell(w.preemptsPerRequest(), 1);
    }
    table.print();
    if (stats.faultsInjected > 0 || stats.quarantinedTenants > 0)
        std::printf("\nfaults: %llu injected, %llu DMA retries, "
                    "%llu SA replays, %u tenant(s) quarantined\n",
                    static_cast<unsigned long long>(
                        stats.faultsInjected),
                    static_cast<unsigned long long>(
                        stats.dmaRetries),
                    static_cast<unsigned long long>(
                        stats.saReplays),
                    stats.quarantinedTenants);
    if (args.get("detail", "0") != "0")
        std::printf("\n%s", stats.detailedReport(registry).c_str());
    // Graceful degradation: the run (not the process) died; the
    // outputs above are still written.
    if (stats.aborted)
        std::printf("\nrun aborted: %s\n", stats.abortReason.c_str());
}

/**
 * One multi-tenant run on one core (closed or open loop, optionally
 * fault-injected and observed): cell, observers, run, outputs, table.
 */
int
cmdRun(const Args &args)
{
    // The fault plan must outlive runner.run(), so it lives here.
    FaultPlan plan;
    SweepCell cell = runCellFromArgs(args, plan);
    ExperimentRunner runner(configFromArgs(args));
    const Observers obs =
        attachRunObservers(args, runner.config(), cell.options);
    const auto wall_start = std::chrono::steady_clock::now();
    const RunStats stats = runner.run(cell.kind, cell.tenants,
                                      cell.requests, cell.warmup,
                                      cell.options);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    writeRunOutputs(args, runner.config(), cell, stats, wall.count(),
                    obs);
    printRunReport(args, runner.config(), stats, obs.registry.get());
    return stats.aborted ? kExitRuntime : kExitOk;
}

int
cmdReport(const Args &args)
{
    ReportOptions options;
    options.config = configFromArgs(args);
    options.requests = args.getUint("requests", "25");
    if (options.requests == 0)
        usageError("--requests expects a positive integer, got '0'");
    options.jobs = args.jobs();
    options.statsJsonPath = args.get("stats-json", "");
    const std::string out = args.get("out", "report.md");
    std::printf("running the headline evaluation (%llu requests "
                "per tenant per run, %zu job%s)...\n",
                static_cast<unsigned long long>(options.requests),
                options.jobs, options.jobs == 1 ? "" : "s");
    orUsageError(writeEvaluationReportFile(out, options));
    std::printf("report written to %s\n", out.c_str());
    if (!options.statsJsonPath.empty())
        std::printf("stats JSON written to %s\n",
                    options.statsJsonPath.c_str());
    return 0;
}

int
cmdFigure(const Args &args)
{
    FigureOptions options;
    options.quick = args.get("quick", "0") != "0";
    options.requests = args.getUint("requests", options.quick ? "8" : "25");
    options.jobs = args.jobs();
    options.statsJsonPath = args.get("stats-json", "");
    const Figure figure =
        orUsageError(buildFigure(args.get("id", ""), options));
    if (args.get("csv", "0") != "0")
        printFigureCsv(std::cout, figure);
    else
        printFigureText(std::cout, figure);
    return kExitOk;
}

int
cmdGenTraces(const Args &args)
{
    const std::string dir = args.get("out", "traces");
    const NpuConfig cfg = configFromArgs(args);
    for (const ModelProfile &m : modelZoo()) {
        const Workload wl(m, m.refBatch, cfg);
        const std::string path =
            dir + "/" + m.abbrev + "_b" +
            std::to_string(m.refBatch) + ".txt";
        orUsageError(saveTraceFile(path,
                                   TraceHeader{m.abbrev, m.refBatch},
                                   wl.trace()));
        std::printf("%-24s %5zu ops -> %s\n", wl.label().c_str(),
                    wl.trace().ops.size(), path.c_str());
    }
    return 0;
}

int
cmdAdvise(const Args &args)
{
    const auto models = split(args.get("models", ""), ',');
    if (models.size() < 2)
        usageError("advise: --models needs at least two entries");
    for (const std::string &m : models)
        modelOrUsageError(m);
    ClusterConfig cfg;
    cfg.numCores = static_cast<std::size_t>(
        args.getUint("cores", std::to_string(models.size())));
    cfg.jobs = args.jobs();
    NpuCluster cluster(cfg);
    for (const auto &m : models)
        orUsageError(cluster.addWorkload(m));
    std::printf("profiling and training the collocation advisor "
                "(%zu workloads)...\n",
                models.size());
    orUsageError(cluster.trainAdvisor());
    const ClusterResult r = orUsageError(
        cluster.dispatchAndRun(DispatchPolicy::ClusteredPairing));
    std::printf("\nrecommended placement (%zu cores, fleet STP "
                "%.2f):\n",
                r.coresUsed, r.fleetStp);
    for (std::size_t c = 0; c < r.assignment.size(); ++c) {
        std::printf("  core %zu:", c);
        for (const auto &m : r.assignment[c])
            std::printf(" %s", m.c_str());
        std::printf("   (SA %s, STP %.2f)\n",
                    formatPct(r.perCore[c].saUtil).c_str(),
                    r.perCore[c].stp());
    }
    if (args.has("stats-json")) {
        const std::string path = args.get("stats-json", "");
        std::ofstream js(path);
        if (!js)
            usageError("advise: cannot open stats JSON path '", path,
                       "'");
        JsonWriter w(js);
        w.beginObject();
        w.key("manifest");
        w.beginObject();
        w.kv("tool", "v10sim advise");
        w.kv("cores", static_cast<std::uint64_t>(cfg.numCores));
        w.key("workloads");
        w.beginArray();
        for (const auto &m : models)
            w.value(m);
        w.endArray();
        w.endObject();
        w.kv("fleet_stp", r.fleetStp);
        w.kv("cores_used", static_cast<std::uint64_t>(r.coresUsed));
        w.key("placement");
        w.beginArray();
        for (std::size_t c = 0; c < r.assignment.size(); ++c) {
            w.beginObject();
            w.key("workloads");
            w.beginArray();
            for (const auto &m : r.assignment[c])
                w.value(m);
            w.endArray();
            w.key("run");
            writeRunStatsJson(w, r.perCore[c]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        js << '\n';
        js.flush();
        if (!js)
            usageError("advise: short write on stats JSON '", path, "'");
        std::printf("stats JSON written to %s\n", path.c_str());
    }
    return 0;
}

/** The serve configuration, resilience loop included; @p faults
 * must stay alive while the configuration is in use. */
ServeConfig
serveConfigFromArgs(const Args &args, FaultPlan &faults)
{
    ServeConfig cfg;
    cfg.core = configFromArgs(args);
    cfg.numCores =
        static_cast<std::size_t>(args.getUint("cores", "8"));
    cfg.durationSec = args.getDouble("duration", "1");
    cfg.seed = args.getUint("seed", "1");
    cfg.queueCapacity =
        static_cast<std::size_t>(args.getUint("queue-cap", "64"));
    cfg.jobs = args.jobs();
    // A Chrome-trace timeline needs the per-core queue-depth /
    // in-flight counter series; sample them at fixed sim-time ticks.
    if (args.has("timeline") || args.has("queue-sample-ticks"))
        cfg.queueSampleTicks = static_cast<std::size_t>(
            args.getUint("queue-sample-ticks", "64"));

    const std::string policy_name =
        args.get("policy", "least-loaded");
    const auto policy = tryPlacementPolicyFromName(policy_name);
    if (!policy)
        usageError("serve: unknown policy '", policy_name,
                   "' (expected round-robin|least-loaded|advisor)");
    cfg.policy = *policy;

    const std::string dist_name = args.get("service", "exp");
    const auto dist = tryServiceDistFromName(dist_name);
    if (!dist)
        usageError("serve: unknown service distribution '",
                   dist_name, "' (expected det|exp|lognormal)");
    cfg.serviceDist = *dist;
    cfg.serviceCv = args.getDouble("cv", "1");
    serveResilienceFromArgs(args, cfg, faults);
    return cfg;
}

/** The generated tenant pool, cycling through the zoo (or
 * --models), with arrival kinds, rates and SLO tiers from flags. */
std::vector<ServeTenant>
serveTenantsFromArgs(const Args &args, const ServeConfig &cfg)
{
    const auto num_tenants =
        static_cast<std::size_t>(args.getUint("tenants", "8"));
    if (num_tenants == 0)
        usageError("serve: --tenants must be >= 1");

    const std::string arrivals_name =
        args.get("arrivals", "poisson");
    const bool mixed = arrivals_name == "mixed";
    const auto fixed_kind = tryArrivalKindFromName(arrivals_name);
    if (!mixed && !fixed_kind)
        usageError("serve: unknown arrival kind '", arrivals_name,
                   "' (expected poisson|diurnal|bursty|mixed)");

    // SLO tiers round-robin over the tenant list.
    std::vector<SloTier> tiers;
    if (args.has("slo"))
        tiers = orUsageError(parseSloSpec(args.get("slo", "")));

    // Mean service time comes from --service-us when given, else
    // from the cycle-accurate single-tenant calibration — the same
    // source ClusterManager uses, so relative SLO targets and
    // offered rates agree with the simulation.
    std::vector<std::string> models;
    if (args.has("models")) {
        for (const std::string &m :
             split(args.get("models", ""), ','))
            models.push_back(modelOrUsageError(m).abbrev);
    } else {
        for (const ModelProfile &m : modelZoo())
            models.push_back(m.abbrev);
    }
    const double service_override =
        args.getDouble("service-us", "0");
    if (service_override < 0.0)
        usageError("serve: --service-us must be >= 0");
    ExperimentRunner calibrator(cfg.core);
    std::map<std::string, double> service_us;
    for (const std::string &m : models) {
        if (service_us.count(m))
            continue;
        service_us[m] = service_override > 0.0
                            ? service_override
                            : 1e6 / calibrator.singleTenantRps(m, 0);
    }

    // Offered load: --rps fixes every tenant's rate; otherwise
    // --util splits util*cores erlangs evenly across tenants. Both
    // are strictly positive — a zero or negative rate would put a
    // nonsense value in the admission gate's base-rate denominator.
    const double fixed_rps =
        args.has("rps") ? args.getPositiveDouble("rps", "1") : 0.0;
    const double util = args.getPositiveDouble("util", "0.6");
    const double erlangs_per_tenant =
        util * static_cast<double>(cfg.numCores) /
        static_cast<double>(num_tenants);

    // The arrival-shape flags apply to every tenant.
    ArrivalSpec shape;
    shape.amplitude = args.getDouble("amplitude", "0.5");
    shape.periodSec = args.getDouble("period", "60");
    shape.meanOnSec = args.getDouble("on", "0.5");
    shape.meanOffSec = args.getDouble("off", "1");

    std::vector<ServeTenant> pool(num_tenants);
    for (std::size_t i = 0; i < num_tenants; ++i) {
        ServeTenant &t = pool[i];
        t.model = models[i % models.size()];
        t.name = t.model + "#" + std::to_string(i);
        t.serviceUsOverride = service_us[t.model];
        const double service_sec = t.serviceUsOverride * 1e-6;
        t.arrival = shape;
        t.arrival.kind =
            mixed ? static_cast<ArrivalKind>(i % 3) : *fixed_kind;
        t.arrival.rps = fixed_rps > 0.0
                            ? fixed_rps
                            : erlangs_per_tenant / service_sec;
        if (!tiers.empty()) {
            const SloTier &tier = tiers[i % tiers.size()];
            t.slo.latencyTargetUs =
                tier.relative ? tier.value * t.serviceUsOverride
                              : tier.value;
            t.slo.weight = tier.weight;
        }
    }
    return pool;
}

/** Create the observers and attach them to @p manager. Passive:
 * the report is byte-identical with or without them. */
Observers
attachServeObservers(const Args &args, const ServeConfig &cfg,
                     ClusterManager &manager)
{
    Observers obs;
    if (args.has("stats-json")) {
        obs.registry = std::make_unique<StatRegistry>();
        manager.setStats(obs.registry.get());
    }
    // Interference attribution: always collected when the resilience
    // loop is active (the antagonist detector reads it); exported to
    // the registry so the blame matrix lands in --stats-json.
    if (obs.registry && cfg.resilienceActive()) {
        obs.attribution = std::make_unique<AttributionCollector>();
        manager.setAttribution(obs.attribution.get());
    }
    // Request tracing (--trace-out spans.jsonl, --trace-sample 1/N)
    // and the Chrome-trace timeline with counter tracks + async
    // request spans.
    obs.tracer = tracerFromArgs(args);
    if (obs.tracer)
        manager.setRequestTracer(obs.tracer.get());
    if (args.has("timeline")) {
        obs.timeline = std::make_unique<TimelineTracer>(
            cfg.core.freqGHz * 1e3);
        obs.sampler = std::make_unique<IntervalSampler>(10'000);
        manager.setSampler(obs.sampler.get());
        obs.timeline->attachSampler(obs.sampler.get());
        if (obs.tracer)
            obs.timeline->attachSpans(obs.tracer.get());
    }
    return obs;
}

/** The summary line, then every tenant (small fleets or --detail 1)
 * or the five worst p99 tenants. */
void
printServeReport(const Args &args, const ServingReport &report)
{
    std::printf("%s\n", report.summary().c_str());
    const bool detail = args.get("detail", "0") != "0" ||
                        report.tenants.size() <= 16;
    if (detail) {
        TextTable table({"tenant", "core", "offered", "done", "shed",
                         "p50 (us)", "p99 (us)", "p999 (us)",
                         "goodput/s", "slo"});
        for (const TenantServingStats &t : report.tenants) {
            table.addRow();
            table.cell(t.name);
            table.cell(static_cast<long long>(t.core));
            table.cell(static_cast<long long>(t.offered));
            table.cell(static_cast<long long>(t.completed));
            table.cell(static_cast<long long>(t.shed));
            table.cell(t.p50Us, 1);
            table.cell(t.p99Us, 1);
            table.cell(t.p999Us, 1);
            table.cell(t.goodputRps, 1);
            table.cell(formatPct(t.sloAttainment()));
        }
        table.print();
        return;
    }
    std::vector<std::size_t> order(report.tenants.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return report.tenants[a].p99Us >
                                report.tenants[b].p99Us;
                     });
    std::printf("worst p99 tenants (of %zu; --detail 1 for all):\n",
                report.tenants.size());
    for (std::size_t i = 0; i < 5 && i < order.size(); ++i) {
        const TenantServingStats &t = report.tenants[order[i]];
        std::printf("  %-12s core %zu  p50 %.1f  p99 %.1f  "
                    "p999 %.1f us  shed %llu\n",
                    t.name.c_str(), t.core, t.p50Us, t.p99Us,
                    t.p999Us, static_cast<unsigned long long>(t.shed));
    }
}

/** Write --trace-out, --timeline and --stats-json. */
void
writeServeOutputs(const Args &args, const ServeConfig &cfg,
                  const ServingReport &report, const Observers &obs)
{
    if (obs.tracer)
        writeTraceOut(args, *obs.tracer);
    if (obs.timeline) {
        const std::string path = args.get("timeline", "");
        orUsageError(obs.timeline->writeChromeTraceFile(path));
        std::printf("timeline: %zu spans, %zu sample rows -> %s "
                    "(open in chrome://tracing)\n",
                    obs.tracer ? obs.tracer->spanCount() : 0,
                    obs.sampler->rowCount(), path.c_str());
    }
    if (!obs.registry)
        return;
    ServeManifest manifest;
    manifest.policy = placementPolicyName(cfg.policy);
    manifest.arrivals = args.get("arrivals", "poisson");
    manifest.cores = cfg.numCores;
    manifest.tenants = report.tenants.size();
    manifest.durationSec = cfg.durationSec;
    manifest.seed = cfg.seed;
    const std::string path = args.get("stats-json", "");
    orUsageError(writeServingDocumentFile(path, manifest, report,
                                          obs.registry.get()));
    std::printf("stats JSON written to %s\n", path.c_str());
}

/**
 * Fleet-scale open-loop serving (docs/SERVING.md): generate a
 * many-tenant scenario over the model zoo, place it onto simulated
 * cores, and report per-tenant tail latency / goodput / shedding.
 */
int
cmdServe(const Args &args)
{
    // Serve-granularity fault injection: the plan must outlive
    // manager.run(), so it lives in this scope.
    FaultPlan faults;
    const ServeConfig cfg = serveConfigFromArgs(args, faults);
    ClusterManager manager(cfg);
    for (ServeTenant &t : serveTenantsFromArgs(args, cfg))
        orUsageError(manager.addTenant(std::move(t)));
    const Observers obs = attachServeObservers(args, cfg, manager);
    const ServingReport report = orUsageError(manager.run());
    if (obs.attribution)
        obs.attribution->registerStats(*obs.registry);
    printServeReport(args, report);
    writeServeOutputs(args, cfg, report, obs);
    return kExitOk;
}

int
cmdTrace(const Args &args)
{
    const std::string model = args.get("model", "");
    if (model.empty())
        usageError("trace: --model is required");
    modelOrUsageError(model);
    const NpuConfig cfg = configFromArgs(args);
    const int batch =
        static_cast<int>(args.getInt("batch", "0"));
    const Workload wl = Workload::fromName(model, batch, cfg);
    const std::string out = args.get(
        "out", wl.profile().abbrev + "_trace.txt");
    orUsageError(saveTraceFile(
        out, TraceHeader{wl.profile().abbrev, wl.batch()}, wl.trace()));
    std::printf("%s: %zu operators, %.2f ms compute -> %s\n",
                wl.label().c_str(), wl.trace().ops.size(),
                cfg.cyclesToUs(wl.computeCycles()) / 1000.0,
                out.c_str());
    return 0;
}

/**
 * Offline ingestion check: parse traces / fault plans without
 * running anything. Exit 0 when everything parses, 2 with a
 * line/field diagnostic otherwise — the CI corrupt-corpus replay
 * gate drives this subcommand.
 */
int
cmdValidate(const Args &args)
{
    bool checked = false;
    if (args.has("trace")) {
        const std::string path = args.get("trace", "");
        TraceHeader header;
        auto parsed = parseTraceFile(path, header);
        if (!parsed.ok()) {
            std::fprintf(stderr, "v10sim: %s\n",
                         parsed.error().toString().c_str());
            return kExitUsage;
        }
        const Status graph = OpGraph::validate(parsed.value().ops);
        if (!graph) {
            std::fprintf(stderr, "v10sim: %s: %s\n", path.c_str(),
                         graph.error().toString().c_str());
            return kExitUsage;
        }
        std::printf("%s: OK (%s batch %d, %zu operators)\n",
                    path.c_str(), header.model.c_str(),
                    header.batch, parsed.value().ops.size());
        checked = true;
    }
    if (args.has("fault-plan")) {
        const std::string path = args.get("fault-plan", "");
        auto plan = FaultPlan::fromJsonFile(path);
        if (!plan.ok()) {
            std::fprintf(stderr, "v10sim: %s\n",
                         plan.error().toString().c_str());
            return kExitUsage;
        }
        std::printf("%s: OK (%s)\n", path.c_str(),
                    plan.value().summary().c_str());
        checked = true;
    }
    if (args.has("faults")) {
        auto plan = FaultPlan::parse(args.get("faults", ""));
        if (!plan.ok()) {
            std::fprintf(stderr, "v10sim: %s\n",
                         plan.error().toString().c_str());
            return kExitUsage;
        }
        std::printf("--faults: OK (%s)\n",
                    plan.value().summary().c_str());
        checked = true;
    }
    if (!checked)
        usageError("validate: pass --trace <file>, --fault-plan "
                   "<file>, and/or --faults <spec>");
    return kExitOk;
}

void
usage()
{
    std::printf(
        "v10sim — V10 multi-tenant NPU simulator (ISCA'23)\n\n"
        "  v10sim zoo\n"
        "  v10sim profile --model BERT [--batch 32]\n"
        "  v10sim run --models BERT,NCF [--scheduler PMT|V10-Base|"
        "V10-Fair|V10-Full]\n"
        "             [--priorities 0.7,0.3] [--rps 30,120] "
        "[--requests 25]\n"
        "             [--slice cycles] [--sas N --vus N] [--timeline out.json] "
        "[--vmem-mb MB]\n"
        "             [--stats-json out.json] [--sample-interval "
        "cycles] [--samples-csv out.csv]\n"
        "             [--trace-out spans.jsonl] [--trace-sample "
        "1/N]\n"
        "  v10sim advise --models BERT,NCF,RsNt,DLRM [--cores 4] "
        "[--jobs N] [--stats-json out.json]\n"
        "  v10sim serve [--tenants 100] [--cores 16] "
        "[--duration secs] [--util rho | --rps R]\n"
        "               [--arrivals poisson|diurnal|bursty|mixed] "
        "[--policy round-robin|least-loaded|advisor]\n"
        "               [--slo target[:weight][,...]] "
        "[--queue-cap N] [--service det|exp|lognormal]\n"
        "               [--cv C] [--models BERT,NCF,...] "
        "[--amplitude A] [--period secs] [--on secs] [--off secs]\n"
        "               (lognormal service cv; tenant model mix; "
        "diurnal amplitude and period;\n"
        "               bursty mean on/off dwells)\n"
        "               [--service-us U] [--seed N] [--jobs N|auto] "
        "[--stats-json out.json] [--detail 1]\n"
        "               [--trace-out spans.jsonl] [--trace-sample "
        "1/N] [--timeline out.json]\n"
        "               [--queue-sample-ticks N]\n"
        "               [--churn spec | --churn-plan plan.json] "
        "[--antagonist spec | --antagonist-plan plan.json]\n"
        "               [--admission 1] [--admit-headroom F] "
        "[--admit-decrease F] [--admit-increase F]\n"
        "               [--admit-floor F] [--admit-burst secs] "
        "[--detect-hi S] [--detect-lo S]\n"
        "               [--strikes-throttle N] [--strikes-isolate N] "
        "[--strikes-evict N]\n"
        "               [--throttle-factor F] [--recovery-epochs N] "
        "[--faults spec | --fault-plan plan.json]\n"
        "               (open-loop fleet serving, see "
        "docs/SERVING.md; churn / admission control /\n"
        "               antagonist quarantine in "
        "docs/RESILIENCE.md)\n"
        "  v10sim trace --model DLRM [--batch 32] [--out file]\n"
        "  v10sim gen-traces [--out dir]   (all Table 4 traces)\n"
        "  v10sim report [--out report.md] [--requests N] "
        "[--jobs N|auto] [--stats-json out.json]\n"
        "  v10sim figure --id fig3..fig25|table1..table4 [--requests N] "
        "[--quick 1] [--jobs N|auto]\n"
        "                [--csv 1] [--stats-json out.json]   (one paper "
        "figure or table;\n"
        "                --stats-json for the pair grid of fig16-fig21)\n"
        "  v10sim validate --trace file [--fault-plan plan.json] "
        "[--faults spec]\n\n"
        "Global options:\n"
        "  --log-level silent|warn|info|debug   stderr verbosity "
        "(default warn)\n"
        "A flag the command does not use is a usage error.\n\n"
        "Fault injection / degradation (run only, see "
        "docs/ROBUSTNESS.md):\n"
        "  --faults kind:rate=R[:mag=M][:tenant=T][:after=C]"
        "[:count=N][,...]\n"
        "                                   inject faults "
        "(hbm-stall|hbm-droop|dma-timeout|\n"
        "                                   sa-corrupt|runaway|"
        "flood)\n"
        "  --fault-plan plan.json           load a JSON fault plan\n"
        "  --fault-seed N                   fault RNG seed "
        "(0 = plan's seed)\n"
        "  --quarantine K                   quarantine a tenant "
        "after K fault strikes\n"
        "  --max-dma-retries N              DMA retry budget "
        "(default 3)\n"
        "  --watchdog cycles / --cycle-budget cycles   forward-"
        "progress gates\n"
        "  --diag-dir dir                   write diagnostics.json "
        "on aborted runs\n\n"
        "Exit codes: 0 success, 1 runtime failure or aborted run, "
        "2 usage/parse error.\n\n"
        "--stats-json dumps a structured run report (manifest, "
        "RunStats, statistics\nregistry, interval samples); "
        "--sample-interval records utilization time-series\nthat "
        "also render as counter tracks in the --timeline trace.\n\n"
        "--trace-out records deterministic request spans (one JSON "
        "object per line);\n--trace-sample 1/N keeps every Nth "
        "request by hashed trace ID. Tracing is\npassive and "
        "byte-identical across --jobs (docs/OBSERVABILITY.md).\n\n"
        "--jobs fans independent simulations over a thread pool; "
        "results are\nbit-identical for any value (default 1).\n");
}

/** Hardware-configuration flags (configFromArgs). */
const std::set<std::string> kConfigFlags = {"sas", "vus", "vmem-mb",
                                            "slice"};

/** Request-tracing flags (tracerFromArgs). */
const std::set<std::string> kTraceFlags = {"trace-out",
                                           "trace-sample"};

/** One subcommand: its handler and the flags it accepts. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    std::set<std::string> flags;
};

std::set<std::string>
flagUnion(std::initializer_list<std::set<std::string>> groups)
{
    std::set<std::string> all;
    for (const auto &g : groups)
        all.insert(g.begin(), g.end());
    return all;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"zoo", [](const Args &) { return cmdZoo(); }, {}},
        {"profile", cmdProfile,
         flagUnion({kConfigFlags, {"model", "batch"}})},
        {"run", cmdRun,
         flagUnion({kConfigFlags, kTraceFlags,
                    {"models", "priorities", "rps", "requests",
                     "scheduler", "timeline", "stats-json",
                     "sample-interval", "samples-csv", "detail",
                     "faults", "fault-plan", "fault-seed", "watchdog",
                     "cycle-budget", "quarantine", "max-dma-retries",
                     "diag-dir"}})},
        {"advise", cmdAdvise, {"models", "cores", "jobs", "stats-json"}},
        {"serve", cmdServe,
         flagUnion(
             {kConfigFlags, kTraceFlags,
              {"cores", "duration", "seed", "queue-cap", "jobs",
               "timeline", "queue-sample-ticks", "policy", "service",
               "cv", "tenants", "arrivals", "slo", "models",
               "service-us", "rps", "util", "amplitude", "period",
               "on", "off", "stats-json", "detail", "churn",
               "churn-plan", "antagonist", "antagonist-plan",
               "admission", "admit-headroom", "admit-decrease",
               "admit-increase", "admit-floor", "admit-burst",
               "detect-hi", "detect-lo", "strikes-throttle",
               "strikes-isolate", "strikes-evict", "throttle-factor",
               "recovery-epochs", "faults", "fault-plan"}})},
        {"trace", cmdTrace,
         flagUnion({kConfigFlags, {"model", "batch", "out"}})},
        {"gen-traces", cmdGenTraces, flagUnion({kConfigFlags, {"out"}})},
        {"report", cmdReport,
         flagUnion({kConfigFlags,
                    {"out", "requests", "jobs", "stats-json"}})},
        {"figure", cmdFigure,
         {"id", "requests", "quick", "jobs", "csv", "stats-json"}},
        {"validate", cmdValidate, {"trace", "fault-plan", "faults"}},
    };
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kExitUsage;
    }
    const std::string cmd = argv[1];
    const auto it =
        std::find_if(commands().begin(), commands().end(),
                     [&](const Command &c) { return cmd == c.name; });
    if (it == commands().end()) {
        usage();
        return kExitUsage;
    }
    const Args args = Args::parse(argc, argv, 2, cmd, it->flags);
    if (args.has("log-level")) {
        const auto level = logLevelFromName(args.get("log-level", ""));
        if (!level)
            usageError("unknown log level '",
                       args.get("log-level", ""),
                       "' (expected silent|warn|info|debug)");
        setLogLevel(*level);
    }
    return it->run(args);
}
