/**
 * @file
 * v10bench — one benchmark pass over the simulator's public API.
 *
 *   v10bench pass --workload paper-report|pair-openloop|fleet-serve|
 *                            fleet-chaos
 *                 --out DIR [--jobs N] [--trace 0|1 --layers a,b,...]
 *                 [inputs...]
 *   v10bench kernel
 *
 * A pass does what the matching v10sim command does (report, run,
 * serve) through the same library calls, writes the same output
 * files into DIR, and prints one JSON object on stdout: host seconds
 * of set-up and of the whole pass, the simulated runs it attempted
 * and how many failed, simulated end-to-end figures, and, with
 * --trace 1, the per-layer spans and counts --layers names (the
 * per_layer list of BENCHMARK.json). Tracing only times calls at
 * the layer boundaries; it never changes an output file. The layer
 * probes of a traced pass run after the pass is timed.
 *
 * `kernel` runs a fixed amount of work that calls no simulator code,
 * so timings taken on different machines, or at different times on a
 * shared one, can be read as ratios.
 *
 * The inputs come from perfbench/run.py, which draws them from the
 * benchmark seed; this program never sees the seed itself.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"
#include "metrics/interval_sampler.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "serve/cluster_manager.h"
#include "serve/serving_report.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "v10/report.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"

namespace {

using namespace v10;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Peak resident memory of this process since its exec, in MB. The
 * rusage figure would also count the process the pass was forked
 * from, which held its pages until the exec.
 */
double
residentPeakMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Bad arguments: report and exit 2 without a result line. */
[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "v10bench: %s\n", why.c_str());
    std::exit(2);
}

/** --key value arguments. */
struct Args
{
    std::map<std::string, std::string> kv;

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : it->second;
    }

    double
    number(const std::string &key, const std::string &fallback) const
    {
        const auto v = parseDouble(get(key, fallback));
        if (!v)
            usage("--" + key + " expects a number");
        return *v;
    }
};

/**
 * Per-layer host timings and counts of a traced pass. When tracing
 * is off, span() only calls through.
 */
struct Layers
{
    bool on = false;
    std::map<std::string, double> values;

    template <typename F>
    decltype(auto)
    span(const std::string &name, F &&f)
    {
        if (!on)
            return f();
        struct Stop
        {
            double &slot;
            Clock::time_point start = Clock::now();
            ~Stop() { slot += secondsSince(start); }
        } stop{values[name + "_s"]};
        return f();
    }

    void add(const std::string &name, double v) { values[name] += v; }
};

/** The schedulers every engine workload runs: the paper's four plus
 * the PREMA extension. */
std::vector<SchedulerKind>
fiveKinds()
{
    std::vector<SchedulerKind> kinds = allSchedulerKinds();
    kinds.push_back(SchedulerKind::Prema);
    return kinds;
}

/** Observers `v10sim run --stats-json --trace-out` attaches. */
struct Observers
{
    StatRegistry registry;
    /** Coarser than the CLI's 10k-cycle default, which makes a
     * 30 MB document per long-running cell. */
    IntervalSampler sampler{1'000'000};
    RequestTracer tracer;
    AttributionCollector attribution;

    void
    attach(SchedulerOptions &options)
    {
        options.stats = &registry;
        options.sampler = &sampler;
        options.requestTracer = &tracer;
        options.attribution = &attribution;
    }
};

/** Result of one pass. */
struct Pass
{
    Layers layers;
    double setupS = 0.0;
    double wallS = 0.0;
    /** Peak resident memory when the timed part ends. */
    double peakRssMb = 0.0;
    std::uint64_t runs = 0;
    std::uint64_t failedRuns = 0;
    std::vector<std::string> errors;
    /** Serving only: every tenant's p99 sojourn, simulated ms. */
    std::vector<double> tailsMs;
    /** Serving only: SLO-met completions and offered requests. */
    std::uint64_t sloMet = 0;
    std::uint64_t offered = 0;

    void
    fail(const std::string &why, std::uint64_t runsLost = 1)
    {
        failedRuns += runsLost;
        errors.push_back(why);
    }
};

/** Compile and calibrate @p models on @p runner (the set-up every
 * engine experiment and the fleet calibration pay first). */
void
setUpModels(ExperimentRunner &runner,
            const std::vector<std::string> &models, Layers &layers)
{
    for (const std::string &m : models) {
        const Workload *wl = layers.span("workload.compile", [&] {
            return &runner.workload(m, 0);
        });
        layers.add("workload.ops",
                   static_cast<double>(wl->trace().ops.size()));
        layers.span("v10.ref", [&] { runner.singleTenant(m, 0); });
        layers.add("v10.refs", 1);
    }
}

/**
 * Probe the sched layer: rebuild each tenant set through
 * makeScheduler under all five kinds, once bare and once with the
 * run observers attached, and read the engine's event counts.
 */
void
probeScheduler(ExperimentRunner &runner,
               const std::vector<std::vector<TenantRequest>> &cells,
               std::uint64_t requests, std::uint64_t warmup,
               Layers &layers)
{
    std::vector<double> cell_s;
    double bare_s = 0.0;
    double instr_s = 0.0;
    double events = 0.0;
    for (const auto &tenants : cells) {
        std::vector<TenantSpec> specs;
        for (const TenantRequest &t : tenants)
            specs.push_back(TenantSpec{&runner.workload(t.model, 0),
                                       t.priority, t.arrivalRps});
        for (SchedulerKind kind : fiveKinds()) {
            for (const bool instrumented : {false, true}) {
                Simulator sim;
                NpuCore core(sim, runner.config(),
                             static_cast<std::uint32_t>(specs.size()),
                             reservesSaContexts(kind));
                SchedulerOptions options;
                Observers observers;
                if (instrumented)
                    observers.attach(options);
                auto sched = makeScheduler(kind, sim, core, specs, options);
                sched->setStats(options.stats);
                sched->setSampler(options.sampler);
                sched->setRequestTracer(options.requestTracer);
                sched->setAttribution(options.attribution);
                const auto start = Clock::now();
                sched->run(requests, warmup);
                const double s = secondsSince(start);
                if (instrumented) {
                    instr_s += s;
                    continue;
                }
                const std::string name = schedulerKindName(kind);
                const auto n = static_cast<double>(sim.eventsRun());
                layers.add("sched.run_s." + name, s);
                layers.add("sched.events." + name, n);
                cell_s.push_back(s);
                bare_s += s;
                events += n;
            }
        }
    }
    std::sort(cell_s.begin(), cell_s.end());
    layers.add("sched.events_per_s", bare_s > 0.0 ? events / bare_s : 0.0);
    layers.add("sched.cell_p50_ms",
               cell_s.empty() ? 0.0 : 1e3 * cell_s[cell_s.size() / 2]);
    layers.add("sched.cell_max_ms",
               cell_s.empty() ? 0.0 : 1e3 * cell_s.back());
    layers.add("metrics.instr_ratio", bare_s > 0.0 ? instr_s / bare_s : 0.0);
}

/** Distinct models of a pair list, in first-use order. */
std::vector<std::string>
pairModels(const std::vector<std::pair<std::string, std::string>> &pairs)
{
    std::vector<std::string> models;
    for (const auto &[a, b] : pairs)
        for (const std::string &m : {a, b})
            if (std::find(models.begin(), models.end(), m) ==
                models.end())
                models.push_back(m);
    return models;
}

/** `v10sim report --stats-json`: the paper grid, closed loop. */
void
paperReport(const std::string &out, std::size_t jobs, Pass &pass)
{
    const auto &pairs = evaluationPairs();
    const std::uint64_t requests = ExperimentRunner::kDefaultRequests;
    Layers &layers = pass.layers;

    // The report builds its own runner, so set-up is measured on a
    // separate runner doing the same compilation and calibration. It
    // is gone before the report runs, so the pass's peak memory is the
    // report's own.
    {
        const auto setup_start = Clock::now();
        ExperimentRunner runner;
        setUpModels(runner, pairModels(pairs), layers);
        pass.setupS = secondsSince(setup_start);
    }

    ReportOptions options;
    options.requests = requests;
    options.jobs = jobs;
    options.statsJsonPath = out + "/report.json";
    const auto start = Clock::now();
    writeEvaluationReportFile(out + "/report.md", options);
    pass.wallS = secondsSince(start);
    pass.peakRssMb = residentPeakMb();
    pass.runs = pairs.size() * allSchedulerKinds().size();

    if (!layers.on)
        return;
    ExperimentRunner runner;
    for (const std::string &m : pairModels(pairs))
        runner.singleTenant(m, 0);
    SweepRunner sweep(runner, 1);
    const std::vector<RunStats> grid = layers.span("v10.grid", [&] {
        return sweep.runPairs(pairs, allSchedulerKinds(), requests);
    });
    layers.span("v10.render", [&] {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginArray();
        for (const RunStats &stats : grid)
            writeRunStatsJson(w, stats);
        w.endArray();
    });
    std::vector<std::vector<TenantRequest>> cells;
    for (const auto &[a, b] : pairs)
        cells.push_back({TenantRequest{a}, TenantRequest{b}});
    probeScheduler(runner, cells, requests,
                   ExperimentRunner::kDefaultWarmup, layers);
}

/**
 * `v10sim run --rps ... --stats-json --trace-out` over drawn pairs
 * under all five kinds. --cells "A,B,load,prioA,prioB;...": both
 * tenants offer the same rate r, with r * (sA + sB) = load for the
 * dedicated-core service times sA and sB.
 */
void
pairOpenLoop(const Args &args, const std::string &out, std::size_t jobs,
             Pass &pass)
{
    constexpr std::uint64_t requests = 20;
    constexpr std::uint64_t kWarmup = 2; // as v10sim run
    Layers &layers = pass.layers;

    struct Draw
    {
        std::string a, b;
        double load, prioA, prioB;
    };
    std::vector<Draw> draws;
    for (const std::string &cell : split(args.get("cells"), ';')) {
        const auto f = split(cell, ',');
        if (f.size() != 5 || !hasModel(f[0]) || !hasModel(f[1]))
            usage("bad --cells entry '" + cell + "'");
        Draw d{f[0], f[1], 0, 0, 0};
        double *nums[] = {&d.load, &d.prioA, &d.prioB};
        for (int i = 0; i < 3; ++i) {
            const auto v = parseDouble(f[2 + i]);
            if (!v || !(*v > 0.0))
                usage("bad number in --cells entry '" + cell + "'");
            *nums[i] = *v;
        }
        draws.push_back(d);
    }
    if (draws.empty())
        usage("pair-openloop needs --cells");

    const auto start = Clock::now();
    ExperimentRunner runner;
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const Draw &d : draws)
        pairs.emplace_back(d.a, d.b);
    setUpModels(runner, pairModels(pairs), layers);

    std::vector<std::vector<TenantRequest>> tenant_sets;
    for (const Draw &d : draws) {
        const double rps =
            d.load / (1.0 / runner.singleTenantRps(d.a, 0) +
                      1.0 / runner.singleTenantRps(d.b, 0));
        tenant_sets.push_back({TenantRequest{d.a, 0, d.prioA, rps},
                               TenantRequest{d.b, 0, d.prioB, rps}});
    }
    std::vector<SweepCell> cells;
    std::vector<std::unique_ptr<Observers>> observers;
    for (const auto &tenants : tenant_sets) {
        for (SchedulerKind kind : fiveKinds()) {
            SweepCell cell;
            cell.kind = kind;
            cell.tenants = tenants;
            cell.requests = requests;
            cell.warmup = kWarmup;
            observers.push_back(std::make_unique<Observers>());
            observers.back()->attach(cell.options);
            cells.push_back(std::move(cell));
        }
    }
    if (Status s = validateSweepCells(cells); !s)
        usage(s.error().toString());
    pass.setupS = secondsSince(start);

    SweepRunner sweep(runner, jobs);
    const std::vector<RunStats> grid =
        layers.span("v10.grid", [&] { return sweep.run(cells); });
    layers.span("v10.render", [&] {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string base = out + "/cell" + std::to_string(i);
            RunManifest manifest;
            manifest.tool = "v10sim run";
            manifest.scheduler = schedulerKindName(cells[i].kind);
            manifest.configSummary = runner.config().summary();
            for (const auto &w : grid[i].workloads)
                manifest.workloads.push_back(w.label);
            manifest.requests = requests;
            manifest.seed = 1;
            manifest.simulatedCycles = grid[i].windowCycles;
            manifest.sampleInterval = observers[i]->sampler.interval();
            layers.span("metrics.json", [&] {
                writeRunReportJsonFile(base + ".json", manifest, grid[i],
                                       &observers[i]->registry,
                                       &observers[i]->sampler);
            });
            layers.span("trace.jsonl", [&] {
                observers[i]->tracer.writeJsonlFile(base + ".jsonl");
            });
        }
    });
    pass.wallS = secondsSince(start);
    pass.peakRssMb = residentPeakMb();
    pass.runs = cells.size();

    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].aborted)
            pass.fail("cell " + std::to_string(i) +
                      " aborted: " + grid[i].abortReason);
        layers.add("metrics.registry_entries",
                   static_cast<double>(observers[i]->registry.size()));
        layers.add("trace.spans",
                   static_cast<double>(observers[i]->tracer.spanCount()));
    }

    if (layers.on)
        probeScheduler(runner, tenant_sets, requests, kWarmup, layers);
}

/**
 * `v10sim serve` at fleet scale: --tenants tenants on 64 cores for
 * 60 simulated seconds, mixed arrivals, SLO tiers 25x:1,50x:2,
 * least-loaded placement. With @p chaos it adds the
 * admission gate, --churn, --antagonist and --faults, the stats
 * registry with the attribution matrix, and writes the stats-json.
 */
void
fleet(const Args &args, const std::string &out, std::size_t jobs,
      bool chaos, Pass &pass)
{
    const auto tenants =
        static_cast<std::size_t>(args.number("tenants", "1000"));
    const double util = 0.6;
    Layers &layers = pass.layers;

    ServeConfig cfg;
    cfg.numCores = 64;
    cfg.durationSec = 60.0;
    cfg.seed = static_cast<std::uint64_t>(args.number("serve-seed", "1"));
    cfg.jobs = jobs;
    FaultPlan faults;
    if (chaos) {
        cfg.admission.enabled = true;
        auto churn = ChurnPlan::parse(args.get("churn"));
        auto hog = AntagonistPlan::parse(args.get("antagonist"));
        auto flood = FaultPlan::parse(args.get("faults"));
        if (!churn.ok() || !hog.ok() || !flood.ok())
            usage("bad --churn, --antagonist or --faults spec");
        cfg.churn = churn.take();
        cfg.antagonists = hog.take();
        faults = flood.take();
        cfg.faults = &faults;
    }
    if (tenants == 0)
        usage("--tenants must be >= 1");

    const auto start = Clock::now();
    std::map<std::string, double> service_us;
    layers.span("serve.calibrate", [&] {
        ExperimentRunner calibrator(cfg.core);
        std::vector<std::string> models;
        for (const ModelProfile &m : modelZoo())
            models.push_back(m.abbrev);
        setUpModels(calibrator, models, layers);
        for (const std::string &m : models)
            service_us[m] = 1e6 / calibrator.singleTenantRps(m, 0);
    });

    const std::vector<SloTier> tiers = {{true, 25.0, 1.0},
                                        {true, 50.0, 2.0}};
    const auto &zoo = modelZoo();
    ClusterManager manager(cfg);
    for (std::size_t i = 0; i < tenants; ++i) {
        ServeTenant t;
        t.model = zoo[i % zoo.size()].abbrev;
        t.name = t.model + "#" + std::to_string(i);
        t.serviceUsOverride = service_us[t.model];
        t.arrival.kind = static_cast<ArrivalKind>(i % 3);
        t.arrival.rps = util * static_cast<double>(cfg.numCores) /
                        static_cast<double>(tenants) /
                        (t.serviceUsOverride * 1e-6);
        const SloTier &tier = tiers[i % tiers.size()];
        t.slo.latencyTargetUs = tier.value * t.serviceUsOverride;
        t.slo.weight = tier.weight;
        if (Status s = manager.addTenant(std::move(t)); !s)
            usage(s.error().toString());
    }
    StatRegistry registry;
    AttributionCollector attribution;
    if (chaos) {
        manager.setStats(&registry);
        manager.setAttribution(&attribution);
    }
    const bool placed = layers.span(
        "serve.place", [&] { return manager.place().ok(); });
    pass.setupS = secondsSince(start);

    pass.runs = 1;
    const auto run_start = Clock::now();
    auto report_or = manager.run();
    const double run_s = secondsSince(run_start);
    if (!placed || !report_or.ok()) {
        pass.fail(report_or.ok() ? "placement failed"
                                 : report_or.error().toString());
        return;
    }
    const ServingReport report = report_or.take();
    if (Status s = report.checkConservation(); !s)
        pass.fail(s.error().toString());

    ServeManifest manifest;
    manifest.policy = placementPolicyName(cfg.policy);
    manifest.arrivals = "mixed";
    manifest.cores = cfg.numCores;
    manifest.tenants = tenants;
    manifest.durationSec = cfg.durationSec;
    manifest.seed = cfg.seed;
    const std::string json_path = out + "/serving.json";
    if (chaos) {
        const std::size_t before = registry.size();
        layers.span("trace.attrib_register",
                    [&] { attribution.registerStats(registry); });
        layers.add("trace.attrib_formulas",
                   static_cast<double>(registry.size() - before));
        layers.add("metrics.registry_entries",
                   static_cast<double>(registry.size()));
        layers.span("serve.json", [&] {
            std::ofstream js(json_path);
            writeServingDocumentJson(js, manifest, report, &registry);
        });
        layers.add("serve.json_mb",
                   static_cast<double>(
                       std::filesystem::file_size(json_path)) /
                       (1 << 20));
    }
    pass.wallS = secondsSince(start);
    pass.peakRssMb = residentPeakMb();
    if (!chaos) {
        // The command prints only a summary; the document is written
        // after timing so the outputs can be compared.
        std::ofstream js(json_path);
        writeServingDocumentJson(js, manifest, report, nullptr);
    }

    for (const TenantServingStats &t : report.tenants) {
        pass.sloMet += t.completed - t.sloViolations;
        pass.tailsMs.push_back(t.p99Us / 1e3);
    }
    pass.offered = report.offered;

    if (!layers.on)
        return;
    const double offered = static_cast<double>(report.offered);
    double arrivals = 0.0;
    layers.span("serve.arrival_gen", [&] {
        for (std::size_t i = 0; i < manager.tenantCount(); ++i) {
            ArrivalProcess process(manager.tenants()[i].arrival,
                                   Rng::deriveStream(cfg.seed, i));
            arrivals += static_cast<double>(
                process.generate(cfg.durationSec).size());
        }
    });
    const double gen_s = layers.values["serve.arrival_gen_s"];
    layers.add("serve.arrivals", arrivals);
    layers.add("serve.run_s", run_s);
    layers.add("serve.loop_s", std::max(run_s - gen_s, 0.0));
    layers.add("serve.requests", offered);
    layers.add("serve.requests_per_s", run_s > 0.0 ? offered / run_s : 0.0);
    layers.add("serve.epochs", static_cast<double>(report.controlEpochs));

    ExperimentRunner runner(cfg.core);
    std::vector<std::vector<TenantRequest>> cells;
    for (const ModelProfile &m : zoo) {
        runner.workload(m.abbrev, 0);
        cells.push_back({TenantRequest{m.abbrev}});
    }
    probeScheduler(runner, cells, ExperimentRunner::kDefaultRequests,
                   ExperimentRunner::kDefaultWarmup, layers);
}

int
cmdPass(const Args &args)
{
    const std::string workload = args.get("workload");
    const std::string out = args.get("out");
    if (out.empty() || !std::filesystem::is_directory(out))
        usage("--out must name an existing directory");
    const auto jobs = static_cast<std::size_t>(args.number("jobs", "1"));
    if (jobs == 0)
        usage("--jobs must be >= 1");

    Pass pass;
    pass.layers.on = args.get("trace", "0") == "1";
    const std::vector<std::string> layer_names =
        split(args.get("layers"), ',');
    if (pass.layers.on && args.get("layers").empty())
        usage("--trace 1 needs --layers");
    if (workload == "paper-report")
        paperReport(out, jobs, pass);
    else if (workload == "pair-openloop")
        pairOpenLoop(args, out, jobs, pass);
    else if (workload == "fleet-serve" || workload == "fleet-chaos")
        fleet(args, out, jobs, workload == "fleet-chaos", pass);
    else
        usage("unknown workload '" + workload + "'");
    // A traced pass reports every layer --layers names. A layer this
    // workload never enters reads 0 for its counts and, for its times,
    // the measured time of an empty span, well under a microsecond.
    if (pass.layers.on) {
        for (const std::string &name : layer_names) {
            const bool is_time = name.size() > 2 &&
                                 name.compare(name.size() - 2, 2, "_s") == 0 &&
                                 name.find("_per_s") == std::string::npos;
            if (is_time && !pass.layers.values.count(name))
                pass.layers.span(name.substr(0, name.size() - 2), [] {});
        }
    }

    JsonWriter w(std::cout, 0);
    w.beginObject();
    w.kv("setup_s", pass.setupS);
    w.kv("wall_s", pass.wallS);
    w.kv("peak_rss_mb", pass.peakRssMb);
    w.kv("runs", pass.runs);
    w.kv("failed_runs", pass.failedRuns);
    w.key("errors");
    w.beginArray();
    for (const std::string &e : pass.errors)
        w.value(e);
    w.endArray();
    w.key("tails_ms");
    w.beginArray();
    for (double ms : pass.tailsMs)
        w.value(ms);
    w.endArray();
    w.kv("slo_met", pass.sloMet);
    w.kv("offered", pass.offered);
    w.key("layers");
    if (pass.layers.on) {
        w.beginObject();
        for (const std::string &name : layer_names) {
            const auto it = pass.layers.values.find(name);
            w.kv(name, it == pass.layers.values.end() ? 0.0 : it->second);
        }
        w.endObject();
    } else {
        w.valueNull();
    }
    w.endObject();
    std::cout << '\n';
    return 0;
}

/**
 * Fixed work with no simulator code, shaped like the simulator's own:
 * sort 2^18 xorshift words twice, then run a toy event loop of 2^18
 * events over a binary heap of 4096 pending events, each touching one
 * word of a 2 MB state array. Prints its seconds and a checksum that
 * never changes.
 */
int
cmdKernel()
{
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t sum = 0;
    std::vector<std::uint32_t> v(1u << 18);
    for (int round = 0; round < 2; ++round) {
        for (std::uint32_t &e : v)
            e = static_cast<std::uint32_t>(next() >> 32);
        std::sort(v.begin(), v.end());
        for (std::size_t i = 0; i < v.size(); i += 4096)
            sum = sum * 31 + v[i];
    }
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    constexpr std::uint32_t kStateMask = (1u << 18) - 1;
    std::vector<std::uint64_t> state(kStateMask + 1);
    for (std::uint32_t id = 0; id < 4096; ++id)
        events.push({next() % 1000, id});
    for (int i = 0; i < (1 << 18); ++i) {
        const auto [at, id] = events.top();
        events.pop();
        std::uint64_t &word =
            state[(id * 2654435761u + static_cast<std::uint32_t>(at)) &
                  kStateMask];
        word += at;
        sum ^= word;
        events.push({at + 1 + next() % (word % 64 + 1), id});
    }
    const double seconds = secondsSince(start);
    std::printf("{\"ref_kernel_s\": %.9g, \"checksum\": \"%016llx\"}\n",
                seconds, static_cast<unsigned long long>(sum));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("expected 'pass' or 'kernel'");
    const std::string cmd = argv[1];
    Args args;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("expected --option value, got '" + key + "'");
        args.kv[key.substr(2)] = argv[i + 1];
    }
    setLogLevel(LogLevel::Silent);
    if (cmd == "kernel")
        return cmdKernel();
    if (cmd == "pass")
        return cmdPass(args);
    usage("unknown command '" + cmd + "'");
}
