#include "v10/npu_cluster.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "v10/sweep.h"
#include "workload/model_zoo.h"

namespace v10 {

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::NoSharing:        return "NoSharing";
      case DispatchPolicy::RandomPairing:    return "RandomPairing";
      case DispatchPolicy::ClusteredPairing: return "ClusteredPairing";
    }
    panic("dispatchPolicyName: bad policy");
}

NpuCluster::NpuCluster(ClusterConfig config)
    : config_(config), runner_(config.core)
{
}

Status
NpuCluster::addWorkload(const std::string &model, int batch,
                        double priority)
{
    if (!hasModel(model))
        return parseError("NpuCluster: unknown model", "", 0,
                          model);
    pool_.push_back(TenantRequest{model, batch, priority});
    return Status::ok();
}

const WorkloadFeatures &
NpuCluster::features(const std::string &model, int batch)
{
    batch = runner_.resolveBatch(model, batch);
    const std::string key = findModel(model).key(batch);
    auto it = feature_cache_.find(key);
    if (it == feature_cache_.end()) {
        const SingleProfile sp =
            profileSingle(config_.core, findModel(model), batch,
                          profile_requests_);
        it = feature_cache_.emplace(key, extractFeatures(sp)).first;
    }
    return it->second;
}

Status
NpuCluster::trainAdvisor(std::uint64_t profileRequests)
{
    if (pool_.empty())
        return parseError(
            "NpuCluster: train after adding workloads", "", 0,
            "pool");
    profile_requests_ = profileRequests;

    // Featurize every distinct pooled workload; bail out to the
    // whole zoo when the pool is too small to cluster.
    std::vector<WorkloadFeatures> training;
    std::vector<std::string> seen;
    auto add_model = [&](const std::string &model, int batch) {
        const WorkloadFeatures &f = features(model, batch);
        const std::string key =
            f.model + "@" + std::to_string(f.batch);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            return;
        seen.push_back(key);
        training.push_back(f);
    };
    for (const TenantRequest &req : pool_)
        add_model(req.model, req.batch);
    if (training.size() < 6) {
        for (const ModelProfile &m : modelZoo())
            add_model(m.abbrev, m.refBatch);
    }

    ClusteringCollocator::Options advisor_options;
    advisor_options.threshold = config_.collocationThreshold;
    advisor_options.jobs = config_.jobs;
    auto advisor =
        std::make_unique<ClusteringCollocator>(advisor_options);
    advisor->train(training, [this](const std::string &a,
                                    const std::string &b) {
        const RunStats full = runner_.runPair(
            config_.scheduler, a, b, 1.0, 1.0, profile_requests_);
        const RunStats pmt = runner_.runPair(
            SchedulerKind::Pmt, a, b, 1.0, 1.0, profile_requests_);
        return pmt.stp() > 0.0 ? full.stp() / pmt.stp() : 0.0;
    });
    advisor_ = std::move(advisor);
    return Status::ok();
}

Result<double>
NpuCluster::predictedGain(const std::string &modelA,
                          const std::string &modelB)
{
    if (!advisorTrained())
        return parseError("NpuCluster: advisor not trained", "", 0,
                          "advisor");
    if (!hasModel(modelA))
        return parseError("NpuCluster: unknown model", "", 0,
                          modelA);
    if (!hasModel(modelB))
        return parseError("NpuCluster: unknown model", "", 0,
                          modelB);
    return advisor_->predictPerf(features(modelA, 0),
                                 features(modelB, 0));
}

std::vector<std::vector<std::size_t>>
NpuCluster::pairClustered()
{
    // Greedy maximum-gain matching: score every pair, take the best
    // remaining pair while it clears the threshold, then give the
    // leftovers dedicated cores.
    struct Candidate
    {
        std::size_t a, b;
        double gain;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        for (std::size_t j = i + 1; j < pool_.size(); ++j) {
            const double gain = advisor_->predictPerf(
                features(pool_[i].model, pool_[i].batch),
                features(pool_[j].model, pool_[j].batch));
            candidates.push_back(Candidate{i, j, gain});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &x, const Candidate &y) {
                  return x.gain > y.gain;
              });

    std::vector<bool> placed(pool_.size(), false);
    std::vector<std::vector<std::size_t>> groups;
    for (const Candidate &c : candidates) {
        if (c.gain < config_.collocationThreshold)
            break;
        if (placed[c.a] || placed[c.b])
            continue;
        groups.push_back({c.a, c.b});
        placed[c.a] = placed[c.b] = true;
    }
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (!placed[i])
            groups.push_back({i});
    }
    return groups;
}

std::vector<std::vector<std::size_t>>
NpuCluster::pairRandom(std::uint64_t seed)
{
    std::vector<std::size_t> order(pool_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);

    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i + 1 < order.size(); i += 2)
        groups.push_back({order[i], order[i + 1]});
    if (order.size() % 2 == 1)
        groups.push_back({order.back()});
    return groups;
}

Result<ClusterResult>
NpuCluster::dispatchAndRun(DispatchPolicy policy, std::uint64_t seed)
{
    if (pool_.empty())
        return parseError("NpuCluster: empty workload pool", "", 0,
                          "pool");
    if (policy == DispatchPolicy::ClusteredPairing &&
        !advisorTrained())
        return parseError("NpuCluster: ClusteredPairing requires "
                          "trainAdvisor()",
                          "", 0, "advisor");

    std::vector<std::vector<std::size_t>> groups;
    switch (policy) {
      case DispatchPolicy::NoSharing:
        for (std::size_t i = 0; i < pool_.size(); ++i)
            groups.push_back({i});
        break;
      case DispatchPolicy::RandomPairing:
        groups = pairRandom(seed);
        break;
      case DispatchPolicy::ClusteredPairing:
        groups = pairClustered();
        break;
    }

    if (groups.size() > config_.numCores)
        return parseError(
            std::string("NpuCluster: ") +
                dispatchPolicyName(policy) + " needs " +
                std::to_string(groups.size()) +
                " cores but the fleet has " +
                std::to_string(config_.numCores) +
                " — add cores or pool fewer workloads",
            "", 0, "numCores");

    ClusterResult result;
    result.policy = policy;

    // Each core's run is an independent simulation: fan them out and
    // fold the fleet aggregates serially in core order, so the
    // result is bit-identical to the serial fleet loop.
    SweepRunner sweep(runner_, config_.jobs);
    std::vector<SweepCell> cells;
    cells.reserve(groups.size());
    for (const auto &group : groups) {
        SweepCell cell;
        cell.kind = config_.scheduler;
        for (std::size_t idx : group)
            cell.tenants.push_back(pool_[idx]);
        cell.requests = config_.requests;
        cell.warmup = config_.warmup;
        cells.push_back(std::move(cell));
    }
    std::vector<RunStats> per_core = sweep.run(cells);

    double sa_sum = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        std::vector<std::string> labels;
        for (std::size_t idx : groups[g])
            labels.push_back(pool_[idx].model);
        RunStats &stats = per_core[g];
        for (const auto &w : stats.workloads)
            result.fleetStp += w.normalizedProgress;
        sa_sum += stats.saUtil;
        result.assignment.push_back(std::move(labels));
        result.perCore.push_back(std::move(stats));
    }
    result.coresUsed = groups.size();
    result.meanSaUtil =
        groups.empty() ? 0.0
                       : sa_sum / static_cast<double>(groups.size());
    return result;
}

} // namespace v10
