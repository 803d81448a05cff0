#include "v10/experiment.h"

#include "common/log.h"
#include "sim/simulator.h"
#include "workload/model_zoo.h"

namespace v10 {

ExperimentRunner::ExperimentRunner(NpuConfig config)
    : config_(config)
{
    if (Status s = config_.check(); !s)
        V10_PANIC(s.error().toString());
}

std::string
ExperimentRunner::key(const std::string &model, int batch) const
{
    return findModel(model).key(batch);
}

void
ExperimentRunner::noteCompute(const std::string &what,
                              const std::string &key) const
{
    if (compute_hook_)
        compute_hook_(what + ":" + key);
}

int
ExperimentRunner::resolveBatch(const std::string &model,
                               int batch) const
{
    return batch > 0 ? batch : findModel(model).refBatch;
}

const Workload &
ExperimentRunner::workload(const std::string &model, int batch)
{
    batch = resolveBatch(model, batch);
    const std::string k = key(model, batch);
    return workloads_.getOrCompute(k, [&] {
        noteCompute("wl", k);
        return std::make_unique<Workload>(findModel(model), batch,
                                          config_);
    });
}

const RunStats &
ExperimentRunner::singleTenant(const std::string &model, int batch)
{
    batch = resolveBatch(model, batch);
    const std::string k = key(model, batch);
    return single_cache_.getOrCompute(k, [&] {
        noteCompute("ref", k);
        const Workload &wl = workload(model, batch);
        Simulator sim;
        NpuCore core(sim, config_, 1, false);
        // A dedicated core needs no policy or preemption; V10-Base
        // with one tenant degenerates to plain in-order execution.
        OperatorScheduler sched(sim, core, {TenantSpec{&wl, 1.0}},
                                OperatorScheduler::Variant::Base);
        auto stats = std::make_unique<RunStats>(
            sched.run(kDefaultRequests, kDefaultWarmup));
        for (auto &w : stats->workloads)
            w.normalizedProgress = 1.0;
        return stats;
    });
}

double
ExperimentRunner::singleTenantRps(const std::string &model, int batch)
{
    const RunStats &ref = singleTenant(model, batch);
    if (ref.workloads.empty())
        panic("singleTenantRps: empty reference run");
    return ref.workloads[0].requestsPerSec;
}

RunStats
ExperimentRunner::run(SchedulerKind kind,
                      const std::vector<TenantRequest> &tenants,
                      std::uint64_t requests, std::uint64_t warmup,
                      const SchedulerOptions &options)
{
    if (tenants.empty())
        fatal("ExperimentRunner::run: no tenants");

    std::vector<TenantSpec> specs;
    std::vector<double> single_rps;
    specs.reserve(tenants.size());
    for (const TenantRequest &req : tenants) {
        const int batch = resolveBatch(req.model, req.batch);
        specs.push_back(TenantSpec{&workload(req.model, batch),
                                   req.priority, req.arrivalRps});
        single_rps.push_back(singleTenantRps(req.model, batch));
    }

    Simulator sim;
    NpuCore core(sim, config_,
                 static_cast<std::uint32_t>(tenants.size()),
                 reservesSaContexts(kind));
    auto sched =
        makeScheduler(kind, sim, core, std::move(specs), options);
    sched->setTimeline(options.timeline);
    sched->setStats(options.stats);
    sched->setSampler(options.sampler);
    sched->setResilience(options.resilience);
    sched->setRequestTracer(options.requestTracer);
    sched->setAttribution(options.attribution);
    sched->setFlightRecorder(options.flightRecorder);
    RunStats stats = sched->run(requests, warmup);

    for (std::size_t i = 0; i < stats.workloads.size(); ++i) {
        auto &w = stats.workloads[i];
        w.normalizedProgress =
            single_rps[i] > 0.0 ? w.requestsPerSec / single_rps[i]
                                : 0.0;
    }
    return stats;
}

RunStats
ExperimentRunner::runPair(SchedulerKind kind, const std::string &modelA,
                          const std::string &modelB, double priorityA,
                          double priorityB, std::uint64_t requests,
                          const SchedulerOptions &options)
{
    return run(kind,
               {TenantRequest{modelA, 0, priorityA},
                TenantRequest{modelB, 0, priorityB}},
               requests, kDefaultWarmup, options);
}

} // namespace v10
