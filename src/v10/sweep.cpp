#include "v10/sweep.h"

#include <cmath>

#include "common/log.h"
#include "sched/scheduler_factory.h"
#include "workload/model_zoo.h"

namespace v10 {

Status
validateSweepCell(const SweepCell &cell, std::size_t index)
{
    const std::string where =
        cell.label.empty() ? "cell " + std::to_string(index)
                           : cell.label;
    const auto bad = [&where](const std::string &message,
                              const std::string &token) {
        return parseError(message, "sweep:" + where, 0, token);
    };
    if (cell.tenants.empty())
        return bad("cell has no tenants", "tenants");
    if (cell.requests == 0)
        return bad("request target must be positive", "requests");
    for (const TenantRequest &req : cell.tenants) {
        if (tryFindModel(req.model) == nullptr)
            return bad("unknown model", req.model);
        if (req.batch < 0)
            return bad("batch must be non-negative (0 = reference)",
                       req.model + "@" + std::to_string(req.batch));
        if (!std::isfinite(req.priority) || req.priority <= 0.0)
            return bad("priority must be positive and finite",
                       req.model);
        if (!std::isfinite(req.arrivalRps) || req.arrivalRps < 0.0)
            return bad("arrival rate must be non-negative and finite",
                       req.model);
    }
    return Status::ok();
}

Status
validateSweepCells(const std::vector<SweepCell> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Status ok = validateSweepCell(cells[i], i);
        if (!ok)
            return ok;
    }
    return Status::ok();
}

SweepRunner::SweepRunner(ExperimentRunner &runner, std::size_t jobs)
    : runner_(runner),
      exec_(jobs == 0 ? ParallelExecutor::hardwareJobs() : jobs)
{
}

std::vector<RunStats>
SweepRunner::run(const std::vector<SweepCell> &cells)
{
    // Cells are a precondition (callers ingesting user input run
    // validateSweepCells() first); checking here, before any worker
    // spawns, keeps a caller bug from surfacing inside a pool thread.
    if (Status s = validateSweepCells(cells); !s)
        V10_PANIC("SweepRunner::run: ", s.error().toString());
    return exec_.map<RunStats>(cells.size(), [&](std::size_t i) {
        const SweepCell &cell = cells[i];
        return runner_.run(cell.kind, cell.tenants, cell.requests,
                           cell.warmup, cell.options);
    });
}

std::vector<SweepCell>
SweepRunner::pairGrid(
    const std::vector<std::pair<std::string, std::string>> &pairs,
    const std::vector<SchedulerKind> &kinds, std::uint64_t requests)
{
    std::vector<SweepCell> cells;
    cells.reserve(pairs.size() * kinds.size());
    for (const auto &[a, b] : pairs) {
        for (SchedulerKind kind : kinds) {
            SweepCell cell;
            cell.kind = kind;
            cell.tenants = {TenantRequest{a, 0, 1.0},
                            TenantRequest{b, 0, 1.0}};
            cell.requests = requests;
            cell.label =
                a + "+" + b + "/" + schedulerKindName(kind);
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

std::vector<RunStats>
SweepRunner::runPairs(
    const std::vector<std::pair<std::string, std::string>> &pairs,
    const std::vector<SchedulerKind> &kinds, std::uint64_t requests)
{
    return run(pairGrid(pairs, kinds, requests));
}

} // namespace v10
