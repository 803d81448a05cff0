/**
 * @file
 * Fleet-scale open-loop serving on top of the V10 collocation
 * pipeline (ROADMAP "Fleet-scale online serving"; the Vitis-AI
 * "Butler" multi-user resource manager is the architectural
 * exemplar): hundreds of tenants emit seeded arrival streams, a
 * cluster manager admits/queues/places their requests onto many
 * simulated NPU cores, and a ServingReport captures per-tenant tail
 * latency, goodput, and shedding.
 *
 * Model granularity: serving is simulated at *request* level, not
 * cycle level. Each core is a single server with a weighted-fair
 * queue; a tenant's mean service time is calibrated once from the
 * cycle-accurate model (ExperimentRunner::singleTenantRps) or set
 * explicitly, and collocation is captured as a per-tenant service
 * speed factor taken from the trained CollocationAdvisor (a core
 * pairing with predicted gain g serves its residents' requests g
 * times faster, i.e. the §3.4 STP gain applied to capacity). That
 * keeps a 100-tenant / 100k-request scenario tractable while the
 * queueing statistics stay analytically checkable (M/M/1 at one
 * tenant per core with exponential service).
 *
 * Determinism: placement runs before any simulation and per-core
 * simulations are independent (tenant arrival streams and per-core
 * service draws use Rng::deriveStream), so fanning cores across
 * ParallelExecutor workers is bit-identical to the serial loop.
 */

#ifndef V10_SERVE_CLUSTER_MANAGER_H
#define V10_SERVE_CLUSTER_MANAGER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "npu/npu_config.h"
#include "serve/admission.h"
#include "serve/antagonist.h"
#include "serve/arrival.h"
#include "serve/churn_plan.h"
#include "serve/serving_report.h"
#include "sim/fault_plan.h"
#include "trace/slo_monitor.h"
#include "v10/experiment.h"
#include "v10/npu_cluster.h"

namespace v10 {

class StatRegistry;
class RequestTracer;
class IntervalSampler;
class AttributionCollector;

/** Per-tenant service-level objective. */
struct SloSpec
{
    /** Latency target in microseconds for the full sojourn (queue +
     * service); 0 disables the target (every completion counts as
     * goodput). */
    double latencyTargetUs = 0.0;
    /** Fair-share weight of the tenant on its core (> 0). */
    double weight = 1.0;
};

/**
 * One element of an SLO tier list ("25x:2" = target 25x the
 * tenant's dedicated service time at weight 2; "5000:1" = absolute
 * 5000 us at weight 1). Tiers are assigned round-robin when a
 * scenario generates many tenants.
 */
struct SloTier
{
    bool relative = true;  ///< target is a multiple of service time
    double value = 25.0;   ///< multiple (relative) or us (absolute)
    double weight = 1.0;
};

/**
 * Parse the SLO spec grammar (docs/SERVING.md): a comma-separated
 * list of `target[:weight]`, target = `<number>x` (relative) or
 * `<number>` (absolute us).
 */
Result<std::vector<SloTier>> parseSloSpec(const std::string &spec);

/** One serving tenant. */
struct ServeTenant
{
    std::string name;   ///< unique id ("BERT#17")
    std::string model;  ///< model zoo name or abbreviation
    int batch = 0;      ///< 0 = the model's reference batch
    ArrivalSpec arrival;
    SloSpec slo;
    /** Mean service time in us; 0 = calibrate from the
     * cycle-accurate single-tenant run of the model. Explicit
     * values make pure queueing studies (and the analytic tests)
     * independent of the NPU model. */
    double serviceUsOverride = 0.0;
};

/** Tenant-to-core placement policies. */
enum class PlacementPolicy {
    /** Cores in rotation, ignoring load. */
    RoundRobin,
    /** Greedy least-accumulated-offered-load (erlangs). */
    LeastLoaded,
    /** Pair tenants by the trained CollocationAdvisor's predicted
     * gain (above the threshold), then spill pairs and singles to
     * the least-loaded core; paired tenants serve faster by the
     * predicted gain. */
    Advisor,
};

/** Printable name of a placement policy. */
const char *placementPolicyName(PlacementPolicy policy);

/** Parse "round-robin" / "least-loaded" / "advisor". */
std::optional<PlacementPolicy>
tryPlacementPolicyFromName(const std::string &name);

/** Per-request service-time distribution around the tenant mean. */
enum class ServiceDist {
    Deterministic, ///< exactly the mean (M/D/1 behaviour)
    Exponential,   ///< memoryless (the M/M/1 anchor)
    Lognormal,     ///< mean-preserving with configurable cv
};

/** Printable name of a service distribution. */
const char *serviceDistName(ServiceDist dist);

/** Parse "det" / "exp" / "lognormal". */
std::optional<ServiceDist>
tryServiceDistFromName(const std::string &name);

/** Serving-fleet configuration. */
struct ServeConfig
{
    NpuConfig core{};          ///< per-core hardware (calibration)
    std::size_t numCores = 8;
    double durationSec = 1.0;  ///< arrival horizon
    std::uint64_t seed = 1;
    /** Bound on each tenant's waiting queue; arrivals beyond it are
     * shed (load-shedding under overload). */
    std::size_t queueCapacity = 64;
    PlacementPolicy policy = PlacementPolicy::LeastLoaded;
    ServiceDist serviceDist = ServiceDist::Exponential;
    double serviceCv = 1.0;    ///< Lognormal coefficient of variation
    double collocationThreshold = 1.3; ///< Advisor pairing cutoff
    std::uint64_t advisorProfileRequests = 4;
    /** Threads for the per-core serving fan-out (and advisor
     * training); results are bit-identical for any value. */
    std::size_t jobs = 1;
    /** Per-core queue-depth / in-flight samples taken at fixed
     * sim-time ticks inside the core simulation (0 = off). The
     * series feed an attached IntervalSampler's columns and the
     * Chrome-trace counter tracks. */
    std::size_t queueSampleTicks = 0;
    /** Burn-rate policy for the online SLO monitor. */
    SloPolicy sloPolicy{};

    /**
     * Serve-layer resilience loop (docs/RESILIENCE.md). With every
     * feature at its default the run is the classic single-pass
     * simulation, byte-identical to earlier releases; enabling any
     * of them splits the run into SloMonitor::kBuckets control
     * epochs with a deterministic serial control step per boundary.
     */
    AdmissionPolicy admission{};   ///< token-bucket gate + AIMD
    ChurnPlan churn{};             ///< join/leave/migrate schedule
    AntagonistPlan antagonists{};  ///< injected misbehaviour
    DetectorPolicy detector{};     ///< hysteresis score thresholds
    QuarantineLadder ladder{};     ///< strike escalation ladder
    /** Serve-granularity fault injection: `flood` sites become
     * arrival bursts (cycle fields converted to sim seconds via the
     * core clock); cycle-level kinds have no serve-layer analogue
     * and are ignored. Not owned; nullptr = none. */
    const FaultPlan *faults = nullptr;

    /** True when any resilience feature needs the epoch loop. */
    bool
    resilienceActive() const
    {
        return admission.enabled || !churn.empty() ||
               !antagonists.empty() ||
               (faults != nullptr && !faults->empty());
    }
};

/** Placement decision (exposed for tests). */
struct ServePlacement
{
    /** coreTenants[c] = tenant indices resident on core c. */
    std::vector<std::vector<std::size_t>> coreTenants;
    /** Per-tenant service speed factor (>= 1; advisor pair gain). */
    std::vector<double> tenantSpeed;
    /** Per-tenant core index. */
    std::vector<std::size_t> tenantCore;
};

/**
 * The open-loop serving fleet manager.
 */
class ClusterManager
{
  public:
    explicit ClusterManager(ServeConfig config = ServeConfig{});

    /** Validate and admit a tenant into the serving pool. */
    Status addTenant(ServeTenant tenant);

    /** Number of admitted tenants. */
    std::size_t tenantCount() const { return tenants_.size(); }

    /** The admitted tenants, in admission order. */
    const std::vector<ServeTenant> &tenants() const
    {
        return tenants_;
    }

    /** The configuration. */
    const ServeConfig &config() const { return config_; }

    /**
     * Calibrated mean service time (us) of tenant @p index on a
     * dedicated core: the override when set, else the
     * cycle-accurate single-tenant rate.
     */
    double serviceUs(std::size_t index);

    /**
     * Deterministic tenant-to-core placement under the configured
     * policy. Structured errors: empty pool, zero cores/duration,
     * advisor training failures.
     */
    Result<ServePlacement> place();

    /**
     * Place, simulate every core (fanning across
     * ParallelExecutor when config.jobs > 1), and aggregate the
     * fleet report. Bit-identical for any jobs value.
     */
    Result<ServingReport> run();

    /** Optional registry: run() registers "serve.*" aggregates. */
    void setStats(StatRegistry *stats) { stats_ = stats; }

    /**
     * Optional request tracer: run() records head-sampled request
     * spans (merged across cores in a deterministic total order).
     * Recording is passive — scheduling stays bit-identical with a
     * tracer attached.
     */
    void setRequestTracer(RequestTracer *tracer) { tracer_ = tracer; }

    /**
     * Optional sampler: run() installs per-core `queue_depth` /
     * `in_flight` manual columns and appends one row per sample
     * tick (requires config.queueSampleTicks > 0 and a sampler that
     * was never start()ed).
     */
    void setSampler(IntervalSampler *sampler) { sampler_ = sampler; }

    /**
     * Optional external attribution collector: run() registers
     * every tenant and fills the queue-wait matrix the antagonist
     * detector reads (an internal collector is used when unset).
     * Must outlive any registry the caller registers it with.
     */
    void setAttribution(AttributionCollector *collector)
    {
        attribution_ = collector;
    }

  private:
    Status checkConfig() const;
    Result<ServePlacement> placeAdvisor();

    ServeConfig config_;
    ExperimentRunner runner_;
    std::vector<ServeTenant> tenants_;
    std::vector<double> service_us_cache_; ///< 0 = not yet resolved
    /** Advisor fleet (lazy; Advisor policy only). */
    std::unique_ptr<NpuCluster> advisor_fleet_;
    StatRegistry *stats_ = nullptr;
    RequestTracer *tracer_ = nullptr;
    IntervalSampler *sampler_ = nullptr;
    AttributionCollector *attribution_ = nullptr;
};

} // namespace v10

#endif // V10_SERVE_CLUSTER_MANAGER_H
