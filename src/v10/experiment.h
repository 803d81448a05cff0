/**
 * @file
 * The experiment runner: builds a fresh simulator + NPU core +
 * scheduler for a set of tenant workloads, runs the closed-loop
 * measurement of §5.1, and normalizes per-tenant progress against
 * cached single-tenant (dedicated core) references.
 */

#ifndef V10_V10_EXPERIMENT_H
#define V10_V10_EXPERIMENT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/once_cache.h"
#include "metrics/run_stats.h"
#include "npu/npu_config.h"
#include "sched/scheduler_factory.h"
#include "workload/workload.h"

namespace v10 {

/** One tenant request: model, batch, priority, offered load. */
struct TenantRequest
{
    std::string model;     ///< name or abbreviation (Table 4)
    int batch = 0;         ///< 0 = the model's reference batch
    double priority = 1.0; ///< relative priority
    /** Open-loop offered load in requests/s (0 = closed loop). */
    double arrivalRps = 0.0;
};

/**
 * Runs experiments over one hardware configuration, caching
 * workload compilation and single-tenant references.
 *
 * Thread safety: run(), runPair(), workload(), singleTenant(), and
 * singleTenantRps() may be called concurrently from any number of
 * SweepRunner / ParallelExecutor workers. The compilation and
 * reference caches compute each entry exactly once (concurrent
 * requesters block on the in-flight computation), and every
 * simulation builds its own Simulator + core + scheduler, so
 * parallel sweeps are bit-identical to serial ones.
 */
class ExperimentRunner
{
  public:
    /** @param config hardware configuration; precondition: check()
     *  passes (panics otherwise) */
    explicit ExperimentRunner(NpuConfig config = NpuConfig{});

    /** Default measured requests per tenant per run. */
    static constexpr std::uint64_t kDefaultRequests = 25;

    /** Default warmup requests per tenant per run. */
    static constexpr std::uint64_t kDefaultWarmup = 3;

    /** The hardware configuration. */
    const NpuConfig &config() const { return config_; }

    /**
     * Run @p kind over the given tenants; fills each workload's
     * normalizedProgress from the cached single-tenant rate.
     */
    RunStats run(SchedulerKind kind,
                 const std::vector<TenantRequest> &tenants,
                 std::uint64_t requests = kDefaultRequests,
                 std::uint64_t warmup = kDefaultWarmup,
                 const SchedulerOptions &options = SchedulerOptions{});

    /** Two-tenant convenience used by the pair figures. */
    RunStats runPair(SchedulerKind kind, const std::string &modelA,
                     const std::string &modelB,
                     double priorityA = 1.0, double priorityB = 1.0,
                     std::uint64_t requests = kDefaultRequests,
                     const SchedulerOptions &options =
                         SchedulerOptions{});

    /**
     * Single-tenant (dedicated core) reference run for a workload;
     * cached per (model, batch).
     */
    const RunStats &singleTenant(const std::string &model, int batch);

    /** Single-tenant request completion rate (requests/second). */
    double singleTenantRps(const std::string &model, int batch);

    /** Compiled workload, cached per (model, batch). */
    const Workload &workload(const std::string &model, int batch);

    /** Resolve batch 0 to the model's reference batch. */
    int resolveBatch(const std::string &model, int batch) const;

    /**
     * Test instrumentation: invoked (possibly from a worker thread)
     * each time a cache entry is actually *computed* — with key
     * "wl:BERT@32" for a workload compilation and "ref:BERT@32" for
     * a single-tenant reference run. Cache hits do not fire it, so
     * the concurrency tests can assert exactly-once computation.
     * Set it before the first concurrent use; the hook itself must
     * be thread-safe.
     */
    void setComputeHook(
        std::function<void(const std::string &)> hook)
    {
        compute_hook_ = std::move(hook);
    }

  private:
    NpuConfig config_;
    OnceCache<Workload> workloads_;
    OnceCache<RunStats> single_cache_;
    std::function<void(const std::string &)> compute_hook_;

    std::string key(const std::string &model, int batch) const;
    void noteCompute(const std::string &what,
                     const std::string &key) const;
};

} // namespace v10

#endif // V10_V10_EXPERIMENT_H
