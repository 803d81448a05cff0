#include "v10/report.h"

#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "metrics/run_report.h"
#include "v10/experiment.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"

namespace v10 {

namespace {

/** Markdown table row helper. */
void
row(std::ostream &os, const std::vector<std::string> &cells)
{
    os << "|";
    for (const auto &c : cells)
        os << ' ' << c << " |";
    os << '\n';
}

void
separator(std::ostream &os, std::size_t cols)
{
    os << "|";
    for (std::size_t i = 0; i < cols; ++i)
        os << "---|";
    os << '\n';
}

} // namespace

Status
writeEvaluationReport(std::ostream &os, const ReportOptions &options)
{
    // Open the JSON companion before the grid runs, so that a bad
    // path fails in a moment, not after the whole evaluation.
    std::ofstream js;
    if (!options.statsJsonPath.empty()) {
        js.open(options.statsJsonPath);
        if (!js)
            return parseError("cannot open stats JSON for writing",
                              options.statsJsonPath);
    }
    ExperimentRunner runner(options.config);

    os << "# " << options.title << "\n\n";
    os << "Hardware: `" << options.config.summary() << "`\n\n";
    os << "Measured requests per tenant per run: "
       << options.requests << " (after warmup). All numbers are "
       << "deterministic.\n\n";

    // --- Run everything once (pair x design grid, fanned over
    // options.jobs threads; the grid is bit-identical for any jobs
    // count). ---
    struct PairData
    {
        std::string label;
        std::map<SchedulerKind, RunStats> byKind;
    };
    SweepRunner sweep(runner, options.jobs);
    const auto &kinds = allSchedulerKinds();
    std::vector<RunStats> grid =
        sweep.runPairs(evaluationPairs(), kinds, options.requests);
    std::vector<PairData> pairs;
    std::size_t cell = 0;
    for (const auto &[a, b] : evaluationPairs()) {
        PairData data;
        data.label = a + "+" + b;
        for (SchedulerKind kind : kinds)
            data.byKind.emplace(kind, std::move(grid[cell++]));
        pairs.push_back(std::move(data));
    }

    // --- Headline geomeans. ---
    std::vector<double> util_gain;
    std::vector<double> stp_gain;
    std::vector<double> lat_gain;
    std::vector<double> tail_gain;
    for (const auto &p : pairs) {
        const RunStats &pmt = p.byKind.at(SchedulerKind::Pmt);
        const RunStats &full = p.byKind.at(SchedulerKind::V10Full);
        if (pmt.combinedUtil > 0.0)
            util_gain.push_back(full.combinedUtil /
                                pmt.combinedUtil);
        if (pmt.stp() > 0.0)
            stp_gain.push_back(full.stp() / pmt.stp());
        for (int t = 0; t < 2; ++t) {
            lat_gain.push_back(pmt.workloads[t].avgLatencyUs /
                               full.workloads[t].avgLatencyUs);
            tail_gain.push_back(pmt.workloads[t].p95LatencyUs /
                                full.workloads[t].p95LatencyUs);
        }
    }

    os << "## Headline (V10-Full vs PMT, geomean over "
       << pairs.size() << " pairs)\n\n";
    row(os, {"metric", "paper", "this run"});
    separator(os, 3);
    row(os, {"NPU utilization", "1.64x",
             formatDouble(geomean(util_gain), 2) + "x"});
    row(os, {"aggregated throughput", "1.57x",
             formatDouble(geomean(stp_gain), 2) + "x"});
    row(os, {"average latency", "1.56x",
             formatDouble(geomean(lat_gain), 2) + "x"});
    row(os, {"95th-percentile latency", "1.74x",
             formatDouble(geomean(tail_gain), 2) + "x"});
    os << '\n';

    // --- Per-pair throughput (Fig. 18). ---
    os << "## Throughput by design (STP; Fig. 18)\n\n";
    row(os, {"pair", "PMT", "V10-Base", "V10-Fair", "V10-Full",
             "Full/PMT"});
    separator(os, 6);
    for (const auto &p : pairs) {
        const double pmt = p.byKind.at(SchedulerKind::Pmt).stp();
        const double full =
            p.byKind.at(SchedulerKind::V10Full).stp();
        row(os,
            {p.label, formatDouble(pmt, 3),
             formatDouble(p.byKind.at(SchedulerKind::V10Base).stp(),
                          3),
             formatDouble(p.byKind.at(SchedulerKind::V10Fair).stp(),
                          3),
             formatDouble(full, 3),
             formatDouble(pmt > 0.0 ? full / pmt : 0.0, 2) + "x"});
    }
    os << '\n';

    // --- Utilization & overlap (Figs. 16/17). ---
    os << "## Utilization and overlap under V10-Full "
          "(Figs. 16/17)\n\n";
    row(os, {"pair", "SA", "VU", "HBM", "SA&VU overlap",
             "fairness"});
    separator(os, 6);
    for (const auto &p : pairs) {
        const RunStats &full = p.byKind.at(SchedulerKind::V10Full);
        row(os, {p.label, formatPct(full.saUtil),
                 formatPct(full.vuUtil), formatPct(full.hbmUtil),
                 formatPct(full.overlapBothFrac),
                 formatDouble(full.fairness(), 2)});
    }
    os << '\n';

    // --- Preemption economics (Fig. 21). ---
    os << "## Preemption economics (Fig. 21)\n\n";
    row(os, {"pair", "PMT ovhd", "Full ovhd", "PMT preempts/req",
             "Full preempts/req"});
    separator(os, 5);
    for (const auto &p : pairs) {
        const auto &pmt0 =
            p.byKind.at(SchedulerKind::Pmt).workloads[0];
        const auto &full0 =
            p.byKind.at(SchedulerKind::V10Full).workloads[0];
        row(os, {p.label, formatPct(pmt0.ctxOverheadFrac, 2),
                 formatPct(full0.ctxOverheadFrac, 2),
                 formatDouble(pmt0.preemptsPerRequest(), 1),
                 formatDouble(full0.preemptsPerRequest(), 1)});
    }
    os << '\n';
    os << "Generated by `v10sim report`; see EXPERIMENTS.md for the "
          "full paper-vs-measured discussion.\n";

    // --- Structured JSON companion (--stats-json). ---
    if (js.is_open()) {
        JsonWriter w(js);
        w.beginObject();
        w.key("manifest");
        w.beginObject();
        w.kv("tool", "v10sim report");
        w.kv("config", options.config.summary());
        w.kv("requests", options.requests);
        w.key("schedulers");
        w.beginArray();
        for (SchedulerKind kind : kinds)
            w.value(schedulerKindName(kind));
        w.endArray();
        w.endObject();
        w.key("grid");
        w.beginObject();
        for (const auto &p : pairs) {
            w.key(p.label);
            w.beginObject();
            for (const auto &[kind, stats] : p.byKind) {
                w.key(schedulerKindName(kind));
                writeRunStatsJson(w, stats);
            }
            w.endObject();
        }
        w.endObject();
        w.endObject();
        js << '\n';
    }
    if (js.is_open() && !js)
        return parseError("short write on stats JSON",
                          options.statsJsonPath);
    return Status::ok();
}

Status
writeEvaluationReportFile(const std::string &path,
                          const ReportOptions &options)
{
    std::ofstream os(path);
    if (!os)
        return parseError("cannot open report for writing", path);
    if (Status s = writeEvaluationReport(os, options); !s)
        return s;
    if (!os)
        return parseError("short write on report", path);
    return Status::ok();
}

} // namespace v10
