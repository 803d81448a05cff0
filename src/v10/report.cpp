#include "v10/report.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "metrics/run_report.h"
#include "v10/experiment.h"
#include "v10/figures.h"
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

std::size_t
EvaluationGrid::pairs() const
{
    return evaluationPairs().size();
}

std::string
EvaluationGrid::label(std::size_t pair) const
{
    const auto &[a, b] = evaluationPairs().at(pair);
    return a + "+" + b;
}

const RunStats &
EvaluationGrid::at(std::size_t pair, SchedulerKind kind) const
{
    const auto it = std::find(kinds.begin(), kinds.end(), kind);
    if (it == kinds.end())
        panic("EvaluationGrid::at: design ", schedulerKindName(kind),
              " is not in the grid");
    return cells.at(pair * kinds.size() +
                    static_cast<std::size_t>(it - kinds.begin()));
}

Result<EvaluationGrid>
runEvaluationGrid(const std::vector<SchedulerKind> &kinds,
                  const ReportOptions &options, const std::string &tool)
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
    SweepRunner sweep(runner, options.jobs);
    EvaluationGrid grid{
        kinds, sweep.runPairs(evaluationPairs(), kinds, options.requests)};
    if (!js.is_open())
        return grid;

    JsonWriter w(js);
    w.beginObject();
    w.key("manifest");
    w.beginObject();
    w.kv("tool", tool);
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
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        w.key(grid.label(p));
        w.beginObject();
        for (SchedulerKind kind : kinds) {
            w.key(schedulerKindName(kind));
            writeRunStatsJson(w, grid.at(p, kind));
        }
        w.endObject();
    }
    w.endObject();
    w.endObject();
    js << '\n';
    js.flush();
    if (!js)
        return parseError("short write on stats JSON",
                          options.statsJsonPath);
    return grid;
}

Status
writeEvaluationReport(std::ostream &os, const ReportOptions &options)
{
    const auto &kinds = allSchedulerKinds();
    Result<EvaluationGrid> ran =
        runEvaluationGrid(kinds, options, "v10sim report");
    if (!ran)
        return ran.error();
    const EvaluationGrid grid = ran.take();
    auto pmtOf = [&](std::size_t p) -> const RunStats & {
        return grid.at(p, SchedulerKind::Pmt);
    };
    auto fullOf = [&](std::size_t p) -> const RunStats & {
        return grid.at(p, SchedulerKind::V10Full);
    };

    os << "# " << options.title << "\n\n";
    os << "Hardware: `" << options.config.summary() << "`\n\n";
    os << "Measured requests per tenant per run: "
       << options.requests << " (after warmup). All numbers are "
       << "deterministic.\n\n";

    // --- Headline geomeans. ---
    std::vector<double> util_gain;
    std::vector<double> stp_gain;
    std::vector<double> lat_gain;
    std::vector<double> tail_gain;
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        const RunStats &pmt = pmtOf(p);
        const RunStats &full = fullOf(p);
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

    auto times = [](double v) { return formatDouble(v, 2) + "x"; };
    os << "## Headline (V10-Full vs PMT, geomean over "
       << grid.pairs() << " pairs)\n\n";
    row(os, {"metric", "paper", "this run"});
    separator(os, 3);
    row(os, {"NPU utilization", times(kPaper.utilization),
             times(geomean(util_gain))});
    row(os, {"aggregated throughput", times(kPaper.throughput),
             times(geomean(stp_gain))});
    row(os, {"average latency", times(kPaper.avgLatency),
             times(geomean(lat_gain))});
    row(os, {"95th-percentile latency", times(kPaper.tailLatency),
             times(geomean(tail_gain))});
    os << '\n';

    // --- Per-pair throughput (Fig. 18). ---
    os << "## Throughput by design (STP; Fig. 18)\n\n";
    row(os, {"pair", "PMT", "V10-Base", "V10-Fair", "V10-Full",
             "Full/PMT"});
    separator(os, 6);
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        const double pmt = pmtOf(p).stp();
        const double full = fullOf(p).stp();
        row(os, {grid.label(p), formatDouble(pmt, 3),
                 formatDouble(grid.at(p, SchedulerKind::V10Base).stp(),
                              3),
                 formatDouble(grid.at(p, SchedulerKind::V10Fair).stp(),
                              3),
                 formatDouble(full, 3),
                 times(pmt > 0.0 ? full / pmt : 0.0)});
    }
    os << '\n';

    // --- Utilization & overlap (Figs. 16/17). ---
    os << "## Utilization and overlap under V10-Full "
          "(Figs. 16/17)\n\n";
    row(os, {"pair", "SA", "VU", "HBM", "SA&VU overlap",
             "fairness"});
    separator(os, 6);
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        const RunStats &full = fullOf(p);
        row(os, {grid.label(p), formatPct(full.saUtil),
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
    for (std::size_t p = 0; p < grid.pairs(); ++p) {
        const auto &pmt0 = pmtOf(p).workloads[0];
        const auto &full0 = fullOf(p).workloads[0];
        row(os, {grid.label(p), formatPct(pmt0.ctxOverheadFrac, 2),
                 formatPct(full0.ctxOverheadFrac, 2),
                 formatDouble(pmt0.preemptsPerRequest(), 1),
                 formatDouble(full0.preemptsPerRequest(), 1)});
    }
    os << '\n';
    os << "Generated by `v10sim report`; see EXPERIMENTS.md for the "
          "full paper-vs-measured discussion.\n";
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
    os.flush();
    if (!os)
        return parseError("short write on report", path);
    return Status::ok();
}

} // namespace v10
