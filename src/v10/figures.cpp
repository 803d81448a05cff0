#include "v10/figures.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <utility>

#include "collocate/kmeans.h"
#include "collocate/pca.h"
#include "collocate/standardizer.h"
#include "common/csv.h"
#include "common/parallel_executor.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "npu/sa_preemption.h"
#include "v10/collocation_advisor.h"
#include "v10/experiment.h"
#include "v10/features.h"
#include "v10/hw_cost.h"
#include "v10/profiler.h"
#include "v10/report.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"
#include "workload/workload.h"

namespace v10 {

namespace {

/** printf into a std::string (the notes keep their printf forms). */
std::string
strf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list sized;
    va_copy(sized, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, sized);
    va_end(sized);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

FigureCell
label(std::string text)
{
    return {std::move(text), 0.0, FigureCell::Kind::Text};
}

FigureCell
integer(long long value, std::string text)
{
    return {std::move(text), static_cast<double>(value),
            FigureCell::Kind::Integer};
}

FigureCell
integer(long long value)
{
    return integer(value, std::to_string(value));
}

FigureCell
real(double value, std::string text)
{
    return {std::move(text), value, FigureCell::Kind::Real};
}

FigureCell
real(double value, int precision)
{
    return real(value, formatDouble(value, precision));
}

/** A [0,1] fraction printed as "42.3%". */
FigureCell
pct(double fraction, int precision = 1)
{
    return real(fraction, formatPct(fraction, precision));
}

/** A ratio printed as "1.57x". */
FigureCell
times(double ratio)
{
    return real(ratio, formatDouble(ratio, 2) + "x");
}

/** "pmt", "base", "fair", "full": a design's CSV name. */
std::string
csvDesign(SchedulerKind kind)
{
    std::string name = schedulerKindName(kind);
    if (startsWith(name, "V10-"))
        name = name.substr(4);
    for (char &ch : name)
        ch = static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch)));
    return name;
}

/** The full/pmt ratio, 0 when PMT made no progress. */
double
overPmt(double full, double pmt)
{
    return pmt > 0.0 ? full / pmt : 0.0;
}

/** ExperimentRunner::runPair(kind, a, b, 1.0, 1.0, requests) as a
 *  sweep cell. */
SweepCell
pairCell(SchedulerKind kind, const std::string &a, const std::string &b,
         std::uint64_t requests)
{
    SweepCell cell;
    cell.kind = kind;
    cell.tenants = {TenantRequest{a, 0, 1.0}, TenantRequest{b, 0, 1.0}};
    cell.requests = requests;
    return cell;
}

// --- Characterization (Figs. 3-9, Table 1) ---------------------------

/** Figs. 3-7: one row per model, one column per batch of
 *  @p metric; OOM points print "-". */
Result<Figure>
profileSweep(const FigureOptions &o, std::string title,
             std::string paperRef, double SingleProfile::*metric,
             bool asPercent)
{
    FigureSection s;
    s.columns = {{"model", "model"}};
    for (int b : standardBatchSweep()) {
        std::string name = "b";
        name += std::to_string(b);
        s.columns.push_back({name, name});
    }
    for (const SingleProfile &p : profileAllModels(
             NpuConfig{}, o.quick ? 4 : o.requests, o.jobs)) {
        if (s.rows.empty() || s.rows.back().front().text != p.model)
            s.rows.push_back({label(p.model)});
        const double v = p.*metric;
        s.rows.back().push_back(p.oom       ? label("-")
                                : asPercent ? pct(v)
                                            : real(v, 3));
    }
    return Figure{std::move(title), std::move(paperRef), {std::move(s)}};
}

Result<Figure>
fig8(const FigureOptions &o)
{
    const NpuConfig config;
    FigureSection s;
    s.lead = {strf("Peak compute: %.1f TFLOP/s   Peak bandwidth: "
                   "%.0f GB/s   Ridge point: %.1f FLOPs/byte",
                   config.peakTflops(), config.hbmGBps,
                   config.peakTflops() * 1e12 / (config.hbmGBps * 1e9)),
              ""};
    s.columns = {{"model", "model"},
                 {"batch", "batch"},
                 {"FLOPs/byte", "op_intensity"},
                 {"TFLOP/s", "tflops"},
                 {"% of compute roof", "pct_compute_roof"},
                 {"% of bandwidth roof", "pct_bw_roof"}};
    for (const SingleProfile &p : profileAllModels(
             config, o.quick ? 4 : o.requests, o.jobs)) {
        if (p.oom)
            continue;
        // The bandwidth roof at this intensity (GB/s * OI).
        const double bw_roof_tflops =
            config.hbmGBps * 1e9 * p.opIntensity / 1e12;
        const double compute = p.tflops / config.peakTflops();
        const double bw = p.tflops / bw_roof_tflops;
        s.rows.push_back({label(p.model), integer(p.batch),
                          real(p.opIntensity, 3), real(p.tflops, 4),
                          real(100.0 * compute, formatPct(compute)),
                          real(100.0 * bw, formatPct(bw))});
    }
    return Figure{"Roofline (operational intensity vs TFLOP/s)", "Fig. 8",
                  {std::move(s)}};
}

Result<Figure>
fig9(const FigureOptions &o)
{
    ExperimentRunner runner;
    FigureSection s;
    s.columns = {{"pair", "pair"},         {"DNN1 MXU", "dnn1_mxu"},
                 {"DNN2 MXU", "dnn2_mxu"}, {"MXU total", "mxu_total"},
                 {"DNN1 VPU", "dnn1_vpu"}, {"DNN2 VPU", "dnn2_vpu"},
                 {"VPU total", "vpu_total"}};
    double mxu_sum = 0.0;
    double vpu_sum = 0.0;
    const auto &pairs = characterizationPairs();
    SweepRunner sweep(runner, o.jobs);
    const std::vector<RunStats> runs = sweep.runPairs(
        pairs, {SchedulerKind::Pmt}, o.requests);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const RunStats &stats = runs[i];
        const auto &w1 = stats.workloads[0];
        const auto &w2 = stats.workloads[1];
        mxu_sum += stats.saUtil;
        vpu_sum += stats.vuUtil;
        s.rows.push_back({label(pairs[i].first + "+" + pairs[i].second),
                          pct(w1.saUtil), pct(w2.saUtil),
                          pct(stats.saUtil), pct(w1.vuUtil),
                          pct(w2.vuUtil), pct(stats.vuUtil)});
    }
    const double n = static_cast<double>(s.rows.size());
    s.notes = {"", strf("Average under PMT: MXU %.1f%%, VPU %.1f%% — "
                        "time sharing alone cannot overlap the units "
                        "(paper: ~50%% combined).",
                        100.0 * mxu_sum / n, 100.0 * vpu_sum / n)};
    return Figure{"Per-workload MXU/VPU utilization under PMT", "Fig. 9",
                  {std::move(s)}};
}

Result<Figure>
table1(const FigureOptions &)
{
    const NpuConfig config;
    FigureSection s;
    s.columns = {{"DNN Model", "model"},
                 {"Avg. SA Op. Len. (us)", "sa_op_us"},
                 {"Avg. VU Op. Len. (us)", "vu_op_us"},
                 {"Paper SA (us)", "paper_sa_us"},
                 {"Paper VU (us)", "paper_vu_us"}};
    auto sci = [](double us) { return real(us, formatSci(us)); };
    for (const ModelProfile &m : modelZoo()) {
        const Workload wl(m, m.refBatch, config);
        const double sa_us = config.cyclesToUs(
            static_cast<Cycles>(wl.trace().meanSaOpCycles()));
        const double vu_us = config.cyclesToUs(
            static_cast<Cycles>(wl.trace().meanVuOpCycles()));
        s.rows.push_back({label(m.name), sci(sa_us), sci(vu_us),
                          sci(m.saOpUsRef), sci(m.vuOpUsRef)});
    }
    return Figure{"Average operator lengths", "Table 1", {std::move(s)}};
}

// --- Collocation and hardware cost (Tables 2-5, Figs. 13, 15) --------

Result<Figure>
table2(const FigureOptions &o)
{
    CollocationStudy study(NpuConfig{}, o.quick ? 6 : o.requests, 1.3,
                           o.jobs);
    study.build();
    FigureSection s;
    s.columns = {{"Scheme", "scheme"},
                 {"Overall Accuracy", "accuracy"},
                 {"True Positive", "tp_rate"},
                 {"True Negative", "tn_rate"},
                 {"False Positive", "fp_rate"},
                 {"False Negative", "fn_rate"},
                 {"Worst Perf.", "worst_perf"}};
    for (const SchemeOutcome &r :
         {study.evaluateRandom(), study.evaluateHeuristic(),
          study.evaluateClustering()})
        s.rows.push_back(
            {label(r.scheme), pct(r.accuracy(), 2), pct(r.tpRate(), 2),
             pct(r.tnRate(), 2), pct(r.fpRate(), 2), pct(r.fnRate(), 2),
             real(r.worstPerf, formatDouble(r.worstPerf, 3) + "x")});
    s.notes = {"",
               strf("Beneficial pairs (>=1.3x) in ground truth: "
                    "%.1f%% of all model pairs.",
                    100.0 * study.positiveRate()),
               "(paper: Random 44.83%, Heuristic 64.91%, Clustering "
               "84.73% accuracy)"};
    return Figure{"Collocation prediction accuracy", "Table 2",
                  {std::move(s)}};
}

Result<Figure>
table3(const FigureOptions &)
{
    FigureSection s;
    s.columns = {{"# SAs", "sas"},
                 {"# VUs", "vus"},
                 {"# Workloads", "workloads"},
                 {"Context Table", "table_bytes"},
                 {"Latency", "latency_cycles"},
                 {"Area", "area_pct"},
                 {"Power", "power_pct"},
                 {"Source", "source"}};
    std::vector<SchedulerHwCost> costs = table3Configs();
    // Extrapolated points beyond the paper's synthesis runs.
    costs.push_back(schedulerHwCost(8, 8, 16));
    costs.push_back(schedulerHwCost(8, 8, 32));
    for (const SchedulerHwCost &c : costs) {
        const auto bytes = static_cast<long long>(c.contextTableBytes);
        const auto cycles = static_cast<long long>(c.latencyCycles);
        s.rows.push_back(
            {integer(c.numSa), integer(c.numVu), integer(c.workloads),
             integer(bytes, std::to_string(bytes) + " bytes"),
             integer(cycles, std::to_string(cycles) + " cycles"),
             real(c.areaPct, formatDouble(c.areaPct, 3) + "%"),
             real(c.powerPct, formatDouble(c.powerPct, 3) + "%"),
             label(c.synthesized ? "Table 3" : "extrapolated")});
    }
    return Figure{"Scheduler hardware overhead", "Table 3", {std::move(s)}};
}

Result<Figure>
table4(const FigureOptions &)
{
    const NpuConfig cfg;
    FigureSection s;
    s.lead = {
        "Table 5 — NPU simulator configuration:",
        strf("  Systolic array (SA) dimension   %ux%u", cfg.saDim,
             cfg.saDim),
        strf("  Vector unit (VU) dimension      8x128x%u FP32 "
             "operations/cycle",
             cfg.vuOpsPerLane),
        strf("  Frequency                       %.0f MHz",
             cfg.freqGHz * 1e3),
        "  Vector Memory                   " + formatBytes(cfg.vmemBytes),
        strf("  HBM Memory Size & Bandwidth     %s, %.0f GB/s",
             formatBytes(cfg.hbmBytes).c_str(), cfg.hbmGBps),
        strf("  Scheduler Time Slice            %llu cycles (~%.0f us)",
             static_cast<unsigned long long>(cfg.timeSlice),
             cfg.cyclesToUs(cfg.timeSlice)),
        "",
        "Table 4 — ML models:"};
    s.columns = {{"Name", "name"},
                 {"Abbrev.", "abbrev"},
                 {"Description", "domain"},
                 {"Batch", "batch"},
                 {"ops/request", "ops_per_request"},
                 {"request (ms)", "request_ms"}};
    for (const ModelProfile &m : modelZoo()) {
        const Workload wl(m, m.refBatch, cfg);
        s.rows.push_back(
            {label(m.name), label(m.abbrev), label(m.domain),
             integer(m.refBatch),
             integer(static_cast<long long>(wl.trace().ops.size())),
             real(cfg.cyclesToUs(wl.computeCycles()) / 1000.0, 2)});
    }
    return Figure{"Evaluation setup", "Tables 4 and 5", {std::move(s)}};
}

Result<Figure>
fig13(const FigureOptions &)
{
    FigureSection s;
    s.columns = {{"SA dim", "dim"},
                 {"strategy", "strategy"},
                 {"exit", "exit_cycles"},
                 {"restore", "restore_cycles"},
                 {"overlapped", "overlap_cycles"},
                 {"switch total", "switch_cycles"},
                 {"context", "context_bytes"}};
    for (std::uint32_t dim : {8u, 128u, 256u}) {
        for (auto [strategy, name] :
             {std::pair{SaPreemptStrategy::V10Replay, "V10 replay"},
              std::pair{SaPreemptStrategy::NaiveDrain,
                        "naive drain"}}) {
            const SaPreemptCost c = saPreemptCost(dim, strategy);
            const auto cycles = [](Cycles v) {
                return integer(static_cast<long long>(v));
            };
            const auto sw = static_cast<long long>(c.switchCycles());
            s.rows.push_back(
                {integer(dim, std::to_string(dim) + "x" +
                                  std::to_string(dim)),
                 label(name), cycles(c.exitCycles),
                 cycles(c.restoreCycles), cycles(c.overlappedCycles),
                 integer(sw, std::to_string(sw) + " cyc"),
                 integer(static_cast<long long>(c.contextBytes),
                         formatBytes(c.contextBytes))});
        }
    }
    const SaPreemptCost c =
        saPreemptCost(128, SaPreemptStrategy::V10Replay);
    s.notes = {
        "",
        "Fig. 13 phases for the 128x128 array (V10 replay):",
        "  (1) preemption invoked; execution continues — the SA still "
        "pops valid outputs",
        "  (2) further inputs are saved to vector memory as they are "
        "pushed (no wasted cycles)",
        "  (3) all partial sums depending on earlier inputs popped; "
        "execution pauses",
        strf("  (4) weight save of the preempted operator (%llu cycles) "
             "overlaps the incoming weight load",
             static_cast<unsigned long long>(c.exitCycles)),
        "  (5) preempted operator fully exited",
        strf("  (6) incoming operator replays its saved inputs (%llu "
             "cycles) and resumes",
             static_cast<unsigned long long>(c.restoreCycles -
                                             c.overlappedCycles)),
        strf("  => one context switch occupies the SA for %llu cycles "
             "and stores %s per tenant",
             static_cast<unsigned long long>(c.switchCycles()),
             formatBytes(c.contextBytes).c_str()),
        "     (paper: 384 cycles, 96 KB — 25% less than the naive "
        "drain)."};
    return Figure{"SA context-switch timeline", "Fig. 13", {std::move(s)}};
}

Result<Figure>
fig15(const FigureOptions &o)
{
    const NpuConfig config;
    std::vector<WorkloadFeatures> points;
    for (const ModelProfile &m : modelZoo()) {
        for (int batch : standardBatchSweep()) {
            const SingleProfile p =
                profileSingle(config, m, batch, o.quick ? 3 : 6);
            if (!p.oom)
                points.push_back(extractFeatures(p));
        }
    }
    std::vector<std::vector<double>> rows;
    for (const auto &f : points)
        rows.push_back(f.values);
    const Matrix raw = Matrix::fromRows(rows);
    const Standardizer standardizer(raw);
    const Matrix standardized = standardizer.transform(raw);
    const Pca pca(standardized, 2);
    const Matrix projected = pca.transform(standardized);
    KMeans km(5, 11);
    const KMeansResult fit = km.fit(projected);

    FigureSection s;
    s.columns = {{"model", "model"},     {"batch", "batch"},
                 {"PC1", "pc1"},         {"PC2", "pc2"},
                 {"cluster", "cluster"}, {"SA util", "sa_util"},
                 {"HBM util", "hbm_util"}};
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &f = points[i];
        s.rows.push_back(
            {label(f.model), integer(f.batch),
             real(projected.at(i, 0), 3), real(projected.at(i, 1), 3),
             integer(static_cast<long long>(fit.labels[i])),
             pct(f.values[0]), pct(f.values[2])});
    }
    s.notes = {"", "cluster membership (models, collapsed over "
                   "batches):"};
    for (std::size_t c = 0; c < 5; ++c) {
        std::string line = "  cluster " + std::to_string(c) + ":";
        std::vector<std::string> seen;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (fit.labels[i] != c ||
                std::find(seen.begin(), seen.end(), points[i].model) !=
                    seen.end())
                continue;
            seen.push_back(points[i].model);
            line += " " + points[i].model;
        }
        s.notes.push_back(line);
    }
    s.notes.push_back("");
    s.notes.push_back(
        strf("PCA keeps %.0f%% of the feature variance in two "
             "components; batch variants of a model stay in or near "
             "one cluster (Fig. 15's structure).",
             100.0 * pca.explainedVariance()));
    return Figure{"Clustering of (model, batch) workloads", "Fig. 15",
                  {std::move(s)}};
}

// --- The evaluation pairs (Figs. 16-21) ------------------------------

/** The pair x design grid of figure @p id under @p kinds. */
Result<EvaluationGrid>
pairGrid(const FigureOptions &o, const std::vector<SchedulerKind> &kinds,
         const std::string &id)
{
    ReportOptions run;
    run.requests = o.requests;
    run.jobs = o.jobs;
    run.statsJsonPath = o.statsJsonPath;
    return runEvaluationGrid(kinds, run, "v10sim figure --id " + id);
}

Result<Figure>
fig16(const FigureOptions &o)
{
    Result<EvaluationGrid> ran =
        pairGrid(o, allSchedulerKinds(), "fig16");
    if (!ran)
        return ran.error();
    const EvaluationGrid &grid = ran.value();
    const struct
    {
        const char *lead;
        const char *csv;
        double RunStats::*metric;
    } parts[] = {{"(a) SA utilization", "sa_util", &RunStats::saUtil},
                 {"(b) VU utilization", "vu_util", &RunStats::vuUtil},
                 {"(c) HBM bandwidth utilization", "hbm_util",
                  &RunStats::hbmUtil}};
    Figure fig{"SA / VU / HBM utilization by design", "Fig. 16", {}};
    for (const auto &part : parts) {
        FigureSection s;
        s.lead = {part.lead};
        s.columns = {{"pair", "pair"}};
        for (SchedulerKind kind : grid.kinds)
            s.columns.push_back({schedulerKindName(kind),
                                 csvDesign(kind) + "_" + part.csv});
        std::vector<double> gains;
        for (std::size_t p = 0; p < grid.pairs(); ++p) {
            s.rows.push_back({label(grid.label(p))});
            for (SchedulerKind kind : grid.kinds)
                s.rows.back().push_back(pct(grid.at(p, kind).*part.metric));
            const double pmt = grid.at(p, SchedulerKind::Pmt).*part.metric;
            if (pmt > 0.0)
                gains.push_back(
                    grid.at(p, SchedulerKind::V10Full).*part.metric / pmt);
        }
        s.notes = {strf("geomean V10-Full / PMT: %.2fx", geomean(gains)),
                   ""};
        fig.sections.push_back(std::move(s));
    }
    return fig;
}

Result<Figure>
fig17(const FigureOptions &o)
{
    Result<EvaluationGrid> ran =
        pairGrid(o, allSchedulerKinds(), "fig17");
    if (!ran)
        return ran.error();
    const EvaluationGrid &grid = ran.value();
    FigureSection s;
    s.columns = {{"pair", "pair"},       {"design", "design"},
                 {"SA&VU", "both"},      {"SA only", "sa_only"},
                 {"VU only", "vu_only"}, {"idle", "idle"}};
    double mx = 0.0;
    double sum = 0.0;
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        for (SchedulerKind kind : grid.kinds) {
            const RunStats &r = grid.at(p, kind);
            if (kind == SchedulerKind::V10Full) {
                mx = std::max(mx, r.overlapBothFrac);
                sum += r.overlapBothFrac;
            }
            s.rows.push_back({label(grid.label(p)),
                              label(schedulerKindName(kind)),
                              pct(r.overlapBothFrac), pct(r.saOnlyFrac),
                              pct(r.vuOnlyFrac), pct(r.idleFrac)});
        }
    }
    s.notes = {"", strf("V10-Full overlapped execution: max %.0f%%, "
                        "mean %.0f%% (paper: up to %s, %s avg).",
                        100.0 * mx, 100.0 * sum / grid.pairs(),
                        formatPct(kPaper.overlapMax, 0).c_str(),
                        formatPct(kPaper.overlapMean, 0).c_str())};
    return Figure{"Execution-time breakdown (overlap)", "Fig. 17",
                  {std::move(s)}};
}

Result<Figure>
fig18(const FigureOptions &o)
{
    Result<EvaluationGrid> ran =
        pairGrid(o, allSchedulerKinds(), "fig18");
    if (!ran)
        return ran.error();
    const EvaluationGrid &grid = ran.value();
    FigureSection s;
    s.columns = {{"pair", "pair"}};
    for (SchedulerKind kind : grid.kinds)
        s.columns.push_back(
            {schedulerKindName(kind), csvDesign(kind) + "_stp"});
    s.columns.push_back({"Full/PMT", "full_vs_pmt"});
    std::vector<double> improvements;
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        s.rows.push_back({label(grid.label(p))});
        for (SchedulerKind kind : grid.kinds)
            s.rows.back().push_back(real(grid.at(p, kind).stp(), 3));
        const double ratio =
            overPmt(grid.at(p, SchedulerKind::V10Full).stp(),
                    grid.at(p, SchedulerKind::Pmt).stp());
        improvements.push_back(ratio);
        s.rows.back().push_back(times(ratio));
    }
    s.notes = {"", strf("geomean V10-Full throughput vs PMT: %.2fx "
                        "(paper: %.2fx average).",
                        geomean(improvements), kPaper.throughput)};
    return Figure{"Overall throughput (normalized to PMT)", "Fig. 18",
                  {std::move(s)}};
}

/** Figs. 19/20: per-tenant latency (@p metric) under each design,
 *  normalized to PMT. */
Result<Figure>
latencyFigure(const FigureOptions &o, const std::string &id,
              double WorkloadRunStats::*metric, const char *noteFmt,
              double paper, Figure fig)
{
    Result<EvaluationGrid> ran = pairGrid(o, allSchedulerKinds(), id);
    if (!ran)
        return ran.error();
    const EvaluationGrid &grid = ran.value();
    FigureSection s;
    s.columns = {{"pair", "pair"}, {"tenant", "tenant"}};
    for (SchedulerKind kind : grid.kinds)
        s.columns.push_back({schedulerKindName(kind), csvDesign(kind)});
    s.columns.push_back({"PMT/Full speedup", "speedup_full_vs_pmt"});
    std::vector<double> speedups;
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        for (int tenant = 0; tenant < 2; ++tenant) {
            const auto &pmt =
                grid.at(p, SchedulerKind::Pmt).workloads[tenant];
            auto rel = [&](SchedulerKind kind) {
                return overPmt(grid.at(p, kind).workloads[tenant].*metric,
                               pmt.*metric);
            };
            s.rows.push_back({label(grid.label(p)), label(pmt.label)});
            for (SchedulerKind kind : grid.kinds)
                s.rows.back().push_back(
                    real(kind == SchedulerKind::Pmt ? 1.0 : rel(kind), 2));
            const double full_rel = rel(SchedulerKind::V10Full);
            if (full_rel > 0.0)
                speedups.push_back(1.0 / full_rel);
            s.rows.back().push_back(times(1.0 / full_rel));
        }
    }
    s.notes = {"", strf(noteFmt, geomean(speedups), paper)};
    fig.sections.push_back(std::move(s));
    return fig;
}

Result<Figure>
fig21(const FigureOptions &o)
{
    Result<EvaluationGrid> ran = pairGrid(
        o, {SchedulerKind::Pmt, SchedulerKind::V10Full}, "fig21");
    if (!ran)
        return ran.error();
    const EvaluationGrid &grid = ran.value();
    FigureSection s;
    s.columns = {{"pair", "pair"},
                 {"tenant", "tenant"},
                 {"PMT ovhd", "pmt_overhead"},
                 {"Full ovhd", "full_overhead"},
                 {"PMT preempts/req", "pmt_preempts_per_req"},
                 {"Full preempts/req", "full_preempts_per_req"}};
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        for (int tenant = 0; tenant < 2; ++tenant) {
            const auto &pmt =
                grid.at(p, SchedulerKind::Pmt).workloads[tenant];
            const auto &full =
                grid.at(p, SchedulerKind::V10Full).workloads[tenant];
            s.rows.push_back({label(grid.label(p)), label(pmt.label),
                              pct(pmt.ctxOverheadFrac, 2),
                              pct(full.ctxOverheadFrac, 2),
                              real(pmt.preemptsPerRequest(), 2),
                              real(full.preemptsPerRequest(), 2)});
        }
    }
    s.notes = {"", "Both designs stay under ~" +
                       formatPct(kPaper.ctxOverhead, 0) +
                       " overhead; V10-Full preempts orders of "
                       "magnitude more often (finer-grained sharing)."};
    return Figure{"Context-switch overhead & preemptions per request",
                  "Fig. 21", {std::move(s)}};
}

// --- Sensitivity studies (Figs. 22-25) -------------------------------

Result<Figure>
fig22(const FigureOptions &o)
{
    const std::vector<std::pair<int, int>> splits = {
        {50, 50}, {60, 40}, {70, 30}, {80, 20}, {90, 10}};
    ExperimentRunner runner;
    FigureSection s;
    s.columns = {{"pair", "pair"},         {"split", "split"},
                 {"Full NP1", "full_np1"}, {"Full NP2", "full_np2"},
                 {"PMT NP1", "pmt_np1"},   {"PMT NP2", "pmt_np2"},
                 {"Full STP/PMT", "full_stp_vs_pmt"}};
    // Per (pair, split): its V10-Full cell, then its PMT cell.
    std::vector<SweepCell> cells;
    for (const auto &[a, b] : evaluationPairs()) {
        for (const auto &[p1, p2] : splits) {
            for (SchedulerKind kind :
                 {SchedulerKind::V10Full, SchedulerKind::Pmt}) {
                SweepCell cell = pairCell(kind, a, b, o.requests);
                cell.tenants[0].priority = p1 / 100.0;
                cell.tenants[1].priority = p2 / 100.0;
                cells.push_back(std::move(cell));
            }
        }
    }
    SweepRunner sweep(runner, o.jobs);
    const std::vector<RunStats> runs = sweep.run(cells);
    std::size_t next = 0;
    for (const auto &[a, b] : evaluationPairs()) {
        for (const auto &[p1, p2] : splits) {
            const RunStats &full = runs[next++];
            const RunStats &pmt = runs[next++];
            s.rows.push_back(
                {label(a + "+" + b),
                 label(std::to_string(p1) + "%-" + std::to_string(p2) +
                       "%"),
                 real(full.workloads[0].normalizedProgress, 2),
                 real(full.workloads[1].normalizedProgress, 2),
                 real(pmt.workloads[0].normalizedProgress, 2),
                 real(pmt.workloads[1].normalizedProgress, 2),
                 times(overPmt(full.stp(), pmt.stp()))});
        }
    }
    s.notes = {"", "DNN1 holds the higher priority; V10 sustains its "
                   "progress while letting the low-priority tenant "
                   "harvest idle units (paper Fig. 22)."};
    return Figure{"Priority enforcement", "Fig. 22", {std::move(s)}};
}

Result<Figure>
fig23(const FigureOptions &o)
{
    const std::vector<Cycles> slices = {512,   1024,  4096,
                                        32768, 65536, 1048576};
    ExperimentRunner runner;
    FigureSection s;
    s.columns = {{"pair", "pair"}};
    for (Cycles c : slices)
        s.columns.push_back({std::to_string(c), std::to_string(c)});
    // Per pair: its PMT cell, then one V10-Full cell per slice.
    std::vector<SweepCell> cells;
    for (const auto &[a, b] : evaluationPairs()) {
        cells.push_back(pairCell(SchedulerKind::Pmt, a, b, o.requests));
        for (Cycles c : slices) {
            SweepCell cell =
                pairCell(SchedulerKind::V10Full, a, b, o.requests);
            cell.options.sliceOverride = c;
            cells.push_back(std::move(cell));
        }
    }
    SweepRunner sweep(runner, o.jobs);
    const std::vector<RunStats> runs = sweep.run(cells);
    std::size_t next = 0;
    std::map<Cycles, std::vector<double>> per_slice;
    for (const auto &[a, b] : evaluationPairs()) {
        const RunStats &pmt = runs[next++];
        s.rows.push_back({label(a + "+" + b)});
        for (Cycles c : slices) {
            const RunStats &full = runs[next++];
            const double ratio = overPmt(full.stp(), pmt.stp());
            per_slice[c].push_back(ratio);
            s.rows.back().push_back(times(ratio));
        }
    }
    std::string line = "geomean by slice:";
    for (Cycles c : slices)
        line += strf("  %llu: %.2fx", static_cast<unsigned long long>(c),
                     geomean(per_slice[c]));
    s.notes = {"", line, "(paper: 32768 cycles ~ 46us is the sweet spot)"};
    return Figure{"Throughput vs scheduler time slice", "Fig. 23",
                  {std::move(s)}};
}

Result<Figure>
fig24(const FigureOptions &o)
{
    const std::vector<Bytes> capacities = {8_MiB,  16_MiB, 24_MiB,
                                           32_MiB, 48_MiB, 64_MiB};
    FigureSection s;
    s.columns = {{"pair", "pair"}};
    for (Bytes c : capacities)
        s.columns.push_back({std::to_string(c >> 20) + "MB",
                             std::to_string(c >> 20) + "MB"});
    for (Bytes c : capacities)
        s.columns.push_back({"hbm@" + std::to_string(c >> 20) + "MB",
                             "hbm@" + std::to_string(c >> 20) + "MB"});
    // Each capacity gets its own runner so single-tenant references
    // see the same vmem; every (pair, capacity, kind) run is a task.
    std::vector<std::unique_ptr<ExperimentRunner>> runners;
    for (Bytes cap : capacities) {
        NpuConfig cfg;
        cfg.vmemBytes = cap;
        runners.push_back(std::make_unique<ExperimentRunner>(cfg));
    }
    const auto &pairs = evaluationPairs();
    const std::array<SchedulerKind, 2> kinds = {SchedulerKind::Pmt,
                                                SchedulerKind::V10Full};
    ParallelExecutor exec(o.jobs);
    const std::vector<RunStats> runs = exec.map<RunStats>(
        pairs.size() * capacities.size() * kinds.size(),
        [&](std::size_t i) {
            const auto &[a, b] = pairs[i / kinds.size() /
                                       capacities.size()];
            ExperimentRunner &runner =
                *runners[i / kinds.size() % capacities.size()];
            return runner.runPair(kinds[i % kinds.size()], a, b, 1.0,
                                  1.0, o.requests);
        });
    std::size_t next = 0;
    std::map<Bytes, std::vector<double>> gains;
    for (const auto &[a, b] : pairs) {
        std::vector<FigureCell> hbm_cells;
        s.rows.push_back({label(a + "+" + b)});
        for (Bytes cap : capacities) {
            const RunStats &pmt = runs[next++];
            const RunStats &full = runs[next++];
            const double ratio = overPmt(full.stp(), pmt.stp());
            gains[cap].push_back(ratio);
            s.rows.back().push_back(times(ratio));
            hbm_cells.push_back(pct(full.hbmUtil));
        }
        s.rows.back().insert(s.rows.back().end(), hbm_cells.begin(),
                             hbm_cells.end());
    }
    std::string line = "geomean V10-Full/PMT by capacity:";
    for (Bytes c : capacities)
        line += strf("  %lluMB: %.2fx",
                     static_cast<unsigned long long>(c >> 20),
                     geomean(gains[c]));
    s.notes = {"", line, "(paper: V10 outperforms PMT at every capacity)"};
    return Figure{"Throughput and HBM utilization vs vmem capacity",
                  "Fig. 24", {std::move(s)}};
}

Result<Figure>
fig25(const FigureOptions &o)
{
    const std::vector<std::uint32_t> fu_counts = {1, 2, 4, 8};
    const std::vector<int> tenant_counts = {2, 4, 6, 8, 12, 16, 24, 32};
    const std::uint64_t requests = o.quick ? 4 : 8;
    FigureSection s;
    s.columns = {{"(SAs,VUs)", "(SAs,VUs)"}};
    for (int t : tenant_counts)
        s.columns.push_back(
            {std::to_string(t) + "wl", std::to_string(t) + "wl"});
    for (std::uint32_t fus : fu_counts) {
        NpuConfig cfg = NpuConfig{}.scaledForFus(fus, fus);
        // The paper's scaling study abstracts HBM capacity; keep
        // the bandwidth model but waive the §3.6 deployment check.
        cfg.enforceHbmFit = false;
        ExperimentRunner runner(cfg);
        // One sweep cell per collocation width, fanned over jobs.
        std::vector<SweepCell> cells;
        for (int t : tenant_counts) {
            // Random workload picks, deterministic per (fus, t).
            Rng rng(0xF25u ^ (fus << 8) ^ static_cast<unsigned>(t));
            SweepCell cell;
            for (int i = 0; i < t; ++i) {
                const auto &zoo = modelZoo();
                const auto &m = zoo[rng.uniformInt(zoo.size())];
                cell.tenants.push_back(TenantRequest{m.abbrev, 0, 1.0});
            }
            cell.requests = requests;
            cell.warmup = 1;
            cells.push_back(std::move(cell));
        }
        std::string point = "(";
        point += std::to_string(fus);
        point += ',';
        point += std::to_string(fus);
        point += ')';
        s.rows.push_back({label(point)});
        SweepRunner sweep(runner, o.jobs);
        for (const RunStats &stats : sweep.run(cells))
            s.rows.back().push_back(times(stats.stp()));
    }
    s.notes = {"", "STP is the aggregate progress relative to one "
                   "workload on a dedicated (1,1) core equivalent; it "
                   "saturates once workloads ~= FUs."};
    return Figure{"Throughput scaling with FUs x workloads", "Fig. 25",
                  {std::move(s)}};
}

/** One figure id and its builder. */
struct FigureSpec
{
    const char *id;
    Result<Figure> (*build)(const FigureOptions &);
    bool pairGrid; ///< Figs. 16-21: may write the grid's stats JSON
};

const std::vector<FigureSpec> &
figureSpecs()
{
    static const std::vector<FigureSpec> specs = {
        {"fig3",
         [](const FigureOptions &o) {
             return profileSweep(o, "Overall FLOPS utilization", "Fig. 3",
                                 &SingleProfile::flopsUtil, true);
         },
         false},
        {"fig4",
         [](const FigureOptions &o) {
             return profileSweep(o, "MXU temporal utilization", "Fig. 4",
                                 &SingleProfile::mxuUtil, true);
         },
         false},
        {"fig5",
         [](const FigureOptions &o) {
             return profileSweep(o, "VPU temporal utilization", "Fig. 5",
                                 &SingleProfile::vpuUtil, true);
         },
         false},
        {"fig6",
         [](const FigureOptions &o) {
             return profileSweep(o,
                                 "Ideal speedup (DAG critical-path bound)",
                                 "Fig. 6", &SingleProfile::idealSpeedup,
                                 false);
         },
         false},
        {"fig7",
         [](const FigureOptions &o) {
             return profileSweep(o, "HBM bandwidth utilization", "Fig. 7",
                                 &SingleProfile::hbmUtil, true);
         },
         false},
        {"fig8", fig8, false},
        {"fig9", fig9, false},
        {"fig13", fig13, false},
        {"fig15", fig15, false},
        {"fig16", fig16, true},
        {"fig17", fig17, true},
        {"fig18", fig18, true},
        {"fig19",
         [](const FigureOptions &o) {
             return latencyFigure(
                 o, "fig19", &WorkloadRunStats::avgLatencyUs,
                 "geomean V10-Full latency improvement over PMT: %.2fx "
                 "(paper: %.2fx).",
                 kPaper.avgLatency,
                 {"Average request latency (normalized to PMT)",
                  "Fig. 19", {}});
         },
         true},
        {"fig20",
         [](const FigureOptions &o) {
             return latencyFigure(
                 o, "fig20", &WorkloadRunStats::p95LatencyUs,
                 "geomean V10-Full tail-latency improvement over PMT: "
                 "%.2fx (paper: %.2fx).",
                 kPaper.tailLatency,
                 {"95th-percentile latency (normalized to PMT)",
                  "Fig. 20", {}});
         },
         true},
        {"fig21", fig21, true},
        {"fig22", fig22, false},
        {"fig23", fig23, false},
        {"fig24", fig24, false},
        {"fig25", fig25, false},
        {"table1", table1, false},
        {"table2", table2, false},
        {"table3", table3, false},
        {"table4", table4, false},
    };
    return specs;
}

std::string
csvValue(const FigureCell &cell)
{
    switch (cell.kind) {
    case FigureCell::Kind::Integer:
        return std::to_string(static_cast<long long>(cell.value));
    case FigureCell::Kind::Real:
        return formatDouble(cell.value, 6);
    case FigureCell::Kind::Text:
        break;
    }
    return cell.text;
}

} // namespace

Result<Figure>
buildFigure(const std::string &id, const FigureOptions &options)
{
    const auto &specs = figureSpecs();
    const auto it =
        std::find_if(specs.begin(), specs.end(),
                     [&](const FigureSpec &s) { return id == s.id; });
    if (it == specs.end()) {
        std::string valid;
        for (const FigureSpec &spec : specs)
            valid += std::string(valid.empty() ? "" : ", ") + spec.id;
        return parseError("unknown figure id '" + id +
                          "' (expected one of " + valid + ")");
    }
    if (options.requests == 0)
        return parseError("--requests expects a positive integer, "
                          "got '0'");
    if (!options.statsJsonPath.empty() && !it->pairGrid)
        return parseError("--stats-json is written by the pair-grid "
                          "figures only (fig16-fig21), not " +
                          id);
    return it->build(options);
}

void
printFigureText(std::ostream &os, const Figure &figure)
{
    os << "== " << figure.title << " ==\n(reproduces " << figure.paperRef
       << " of \"V10: Hardware-Assisted NPU Multi-tenancy\", "
          "ISCA'23)\n\n";
    for (const FigureSection &s : figure.sections) {
        for (const std::string &line : s.lead)
            os << line << '\n';
        std::vector<std::string> titles;
        for (const FigureColumn &c : s.columns)
            titles.push_back(c.title);
        TextTable table(titles);
        for (const auto &row : s.rows) {
            table.addRow();
            for (const FigureCell &cell : row)
                table.cell(cell.text);
        }
        os << table.render();
        for (const std::string &line : s.notes)
            os << line << '\n';
    }
}

void
printFigureCsv(std::ostream &os, const Figure &figure)
{
    CsvWriter csv(os);
    for (std::size_t i = 0; i < figure.sections.size(); ++i) {
        const FigureSection &s = figure.sections[i];
        if (i > 0)
            os << '\n';
        std::vector<std::string> cells;
        for (const FigureColumn &c : s.columns)
            cells.push_back(c.csv);
        csv.header(cells);
        for (const auto &row : s.rows) {
            cells.clear();
            for (const FigureCell &cell : row)
                cells.push_back(csvValue(cell));
            csv.row(cells);
        }
    }
}

} // namespace v10
