/**
 * @file
 * The §3.5 "Put It All Together" layer: a fleet of V10 NPU cores
 * serving a pool of inference workloads. Before deployment the
 * advisor is trained offline (profile -> PCA -> K-Means ->
 * inter-cluster pair profiling, Fig. 14); at dispatch time workload
 * groups with complementary resource demands are placed on the same
 * core and every core runs the V10 operator scheduler.
 *
 * Dispatch policies under comparison:
 *  - NoSharing: one workload per core (Fig. 1a);
 *  - RandomPairing: arbitrary pairs (the Table 2 "Random" scheme);
 *  - ClusteredPairing: greedy best-predicted pairs, collocating only
 *    above the 1.3x threshold (§3.4).
 */

#ifndef V10_V10_NPU_CLUSTER_H
#define V10_V10_NPU_CLUSTER_H

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "v10/collocation_advisor.h"
#include "v10/experiment.h"

namespace v10 {

/** Fleet-level dispatch schemes. */
enum class DispatchPolicy {
    NoSharing,
    RandomPairing,
    ClusteredPairing,
};

/** Printable name of a dispatch policy. */
const char *dispatchPolicyName(DispatchPolicy policy);

/** Configuration of the serving fleet. */
struct ClusterConfig
{
    NpuConfig core{};          ///< per-core hardware (Table 5)
    std::size_t numCores = 4;  ///< cores in the fleet
    SchedulerKind scheduler = SchedulerKind::V10Full;
    std::uint64_t requests = 10; ///< measured requests per tenant
    std::uint64_t warmup = 2;
    double collocationThreshold = 1.3;
    /** Threads for advisor training and per-core fleet simulation;
     * results are identical for any value (1 = serial). */
    std::size_t jobs = 1;
};

/** Outcome of one fleet dispatch + run. */
struct ClusterResult
{
    DispatchPolicy policy = DispatchPolicy::NoSharing;

    /** Tenants placed on each core (empty cores omitted). */
    std::vector<std::vector<std::string>> assignment;

    /** Per-core run statistics, aligned with assignment. */
    std::vector<RunStats> perCore;

    /** Sum of normalized progress across every workload: the
     * fleet's aggregate throughput in dedicated-core units. */
    double fleetStp = 0.0;

    /** Cores actually used. */
    std::size_t coresUsed = 0;

    /** Mean SA utilization over used cores. */
    double meanSaUtil = 0.0;
};

/**
 * A fleet of NPU cores with the V10 collocation pipeline.
 */
class NpuCluster
{
  public:
    explicit NpuCluster(ClusterConfig config = ClusterConfig{});

    /** Add a workload to the serving pool; an unknown model is a
     * ParseError. */
    Status addWorkload(const std::string &model, int batch = 0,
                       double priority = 1.0);

    /** Number of pooled workloads. */
    std::size_t poolSize() const { return pool_.size(); }

    /**
     * Offline training (Fig. 14): profile the pool's distinct
     * workloads, featurize them, and train the clustering
     * collocator against simulated pair performance. An empty pool
     * is a ParseError.
     */
    Status trainAdvisor(std::uint64_t profileRequests = 6);

    /** True after trainAdvisor(). */
    bool advisorTrained() const { return advisor_ != nullptr; }

    /**
     * Assign the pool to cores under @p policy and simulate every
     * core. An empty pool, ClusteredPairing without trainAdvisor(),
     * and a fleet smaller than the grouping needs (including a
     * zero-core fleet) are ParseErrors.
     * @param seed randomization seed (RandomPairing shuffle)
     */
    Result<ClusterResult> dispatchAndRun(DispatchPolicy policy,
                                         std::uint64_t seed = 1);

    /** The advisor's predicted gain for two workloads; an untrained
     * advisor or an unknown model is a ParseError. */
    Result<double> predictedGain(const std::string &modelA,
                                 const std::string &modelB);

  private:
    /** Features of a pooled workload (profiled lazily). */
    const WorkloadFeatures &features(const std::string &model,
                                     int batch);

    /** Greedy best-predicted pairing above the threshold (requires a
     * trained advisor). */
    std::vector<std::vector<std::size_t>> pairClustered();

    /** Seeded random pairing. */
    std::vector<std::vector<std::size_t>>
    pairRandom(std::uint64_t seed);

    ClusterConfig config_;
    ExperimentRunner runner_;
    std::vector<TenantRequest> pool_;
    std::map<std::string, WorkloadFeatures> feature_cache_;
    std::unique_ptr<ClusteringCollocator> advisor_;
    std::uint64_t profile_requests_ = 6;
};

} // namespace v10

#endif // V10_V10_NPU_CLUSTER_H
