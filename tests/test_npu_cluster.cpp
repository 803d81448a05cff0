/**
 * @file
 * Tests for the §3.5 fleet layer: dispatch policies, advisor
 * training, and the expected ordering ClusteredPairing >=
 * RandomPairing in aggregate throughput per used core.
 */

#include <gtest/gtest.h>

#include "v10/npu_cluster.h"

namespace v10 {
namespace {

ClusterConfig
smallFleet(std::size_t cores)
{
    ClusterConfig cfg;
    cfg.numCores = cores;
    cfg.requests = 4;
    cfg.warmup = 1;
    return cfg;
}

NpuCluster
makePool(std::size_t cores)
{
    NpuCluster cluster(smallFleet(cores));
    for (const char *m :
         {"BERT", "NCF", "RsNt", "DLRM", "RNRS", "SMask"})
        EXPECT_TRUE(cluster.addWorkload(m)) << m;
    return cluster;
}

TEST(NpuCluster, NoSharingUsesOneCorePerWorkload)
{
    NpuCluster cluster = makePool(6);
    const ClusterResult r =
        cluster.dispatchAndRun(DispatchPolicy::NoSharing).value();
    EXPECT_EQ(r.coresUsed, 6u);
    EXPECT_EQ(r.assignment.size(), 6u);
    for (const auto &core : r.assignment)
        EXPECT_EQ(core.size(), 1u);
    // Dedicated cores: every workload at ~full progress.
    EXPECT_NEAR(r.fleetStp, 6.0, 0.05);
}

TEST(NpuCluster, RandomPairingHalvesCores)
{
    NpuCluster cluster = makePool(6);
    const ClusterResult r =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 3).value();
    EXPECT_EQ(r.coresUsed, 3u);
    for (const auto &core : r.assignment)
        EXPECT_EQ(core.size(), 2u);
    EXPECT_GT(r.fleetStp, 3.0); // sharing always beats half-fleet
    EXPECT_LT(r.fleetStp, 6.0);
}

TEST(NpuCluster, ClusteredPairingBeatsRandomPerCore)
{
    NpuCluster cluster = makePool(6);
    ASSERT_TRUE(cluster.trainAdvisor(4));
    ASSERT_TRUE(cluster.advisorTrained());

    const ClusterResult clustered =
        cluster.dispatchAndRun(DispatchPolicy::ClusteredPairing).value();
    // Average random pairing over a few shuffles.
    double random_sum = 0.0;
    double random_cores = 0.0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const ClusterResult r =
            cluster.dispatchAndRun(DispatchPolicy::RandomPairing, seed)
                .value();
        random_sum += r.fleetStp;
        random_cores += static_cast<double>(r.coresUsed);
    }
    const double random_per_core =
        random_sum / random_cores;
    const double clustered_per_core =
        clustered.fleetStp / static_cast<double>(clustered.coresUsed);
    EXPECT_GT(clustered_per_core, random_per_core);
}

TEST(NpuCluster, ClusteredPairingRespectsThreshold)
{
    // A pool of mutually-contending workloads should not be paired.
    ClusterConfig cfg = smallFleet(4);
    cfg.collocationThreshold = 1.3;
    NpuCluster cluster(cfg);
    for (const char *m : {"BERT", "RNRS", "TFMR", "RsNt"})
        EXPECT_TRUE(cluster.addWorkload(m)) << m;
    ASSERT_TRUE(cluster.trainAdvisor(4));
    const ClusterResult r =
        cluster.dispatchAndRun(DispatchPolicy::ClusteredPairing).value();
    // All four are SA-bound: the advisor should decline most or all
    // pairings (predicted gain < 1.3x) and use dedicated cores.
    EXPECT_GE(r.coresUsed, 3u);
}

TEST(NpuCluster, PredictedGainOrdersPairs)
{
    NpuCluster cluster = makePool(6);
    ASSERT_TRUE(cluster.trainAdvisor(4));
    EXPECT_GT(cluster.predictedGain("BERT", "DLRM").value(),
              cluster.predictedGain("BERT", "RNRS").value());
}

TEST(NpuCluster, RandomPairingIsSeedDeterministic)
{
    NpuCluster cluster = makePool(6);
    const ClusterResult a =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 9).value();
    const ClusterResult b =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 9).value();
    ASSERT_EQ(a.assignment.size(), b.assignment.size());
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.fleetStp, b.fleetStp);

    // A different seed shuffles differently (6 workloads have 15
    // pairings; seeds 9 and 10 diverge in practice).
    const ClusterResult c =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 10).value();
    EXPECT_NE(a.assignment, c.assignment);
}

TEST(NpuCluster, RandomPairingOddPoolLeavesOneSingleton)
{
    ClusterConfig cfg = smallFleet(3);
    NpuCluster cluster(cfg);
    for (const char *m : {"BERT", "NCF", "DLRM", "RsNt", "MNST"})
        EXPECT_TRUE(cluster.addWorkload(m)) << m;
    const ClusterResult r =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 4).value();
    EXPECT_EQ(r.coresUsed, 3u);
    std::size_t singletons = 0;
    std::size_t pairs = 0;
    for (const auto &core : r.assignment) {
        if (core.size() == 1)
            ++singletons;
        else if (core.size() == 2)
            ++pairs;
    }
    EXPECT_EQ(singletons, 1u);
    EXPECT_EQ(pairs, 2u);
}

TEST(NpuCluster, SingleWorkloadPoolPairsToItselfAlone)
{
    NpuCluster cluster(smallFleet(2));
    ASSERT_TRUE(cluster.addWorkload("NCF"));
    const ClusterResult r =
        cluster.dispatchAndRun(DispatchPolicy::RandomPairing, 1).value();
    EXPECT_EQ(r.coresUsed, 1u);
    ASSERT_EQ(r.assignment.size(), 1u);
    EXPECT_EQ(r.assignment[0].size(), 1u);
}

TEST(NpuClusterStatus, StructuredErrorsInsteadOfDeath)
{
    // Misuse surfaces as ParseError values, so embedding callers
    // (the CLI, the serving manager) can recover.
    NpuCluster empty(smallFleet(2));
    const auto no_pool =
        empty.dispatchAndRun(DispatchPolicy::NoSharing);
    ASSERT_FALSE(no_pool.ok());
    EXPECT_NE(no_pool.error().message.find("empty"),
              std::string::npos);
    const Status no_train = empty.trainAdvisor();
    ASSERT_FALSE(no_train);
    EXPECT_NE(no_train.error().message.find("adding workloads"),
              std::string::npos);

    NpuCluster untrained = makePool(6);
    const auto clustered = untrained.dispatchAndRun(
        DispatchPolicy::ClusteredPairing);
    ASSERT_FALSE(clustered.ok());
    EXPECT_NE(clustered.error().message.find("trainAdvisor"),
              std::string::npos);
    const auto gain = untrained.predictedGain("BERT", "NCF");
    ASSERT_FALSE(gain.ok());
    EXPECT_NE(gain.error().message.find("not trained"),
              std::string::npos);

    NpuCluster small = makePool(2); // 6 workloads, 2 cores
    const auto overflow =
        small.dispatchAndRun(DispatchPolicy::NoSharing);
    ASSERT_FALSE(overflow.ok());
    EXPECT_NE(overflow.error().message.find("cores"),
              std::string::npos);

    NpuCluster no_cores = makePool(0);
    const auto zero =
        no_cores.dispatchAndRun(DispatchPolicy::NoSharing);
    ASSERT_FALSE(zero.ok());
    EXPECT_NE(zero.error().message.find("the fleet has 0"),
              std::string::npos);

    NpuCluster bad(smallFleet(4));
    const Status unknown = bad.addWorkload("Nope");
    ASSERT_FALSE(unknown);
    EXPECT_NE(unknown.error().message.find("unknown"),
              std::string::npos);
    EXPECT_EQ(bad.poolSize(), 0u);

    // After the failures above, a valid sequence still works on the
    // same objects — errors leave no broken state behind.
    ASSERT_TRUE(bad.addWorkload("BERT"));
    const auto ok = bad.dispatchAndRun(DispatchPolicy::NoSharing);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().coresUsed, 1u);
}

TEST(DispatchPolicy, Names)
{
    EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::NoSharing),
                 "NoSharing");
    EXPECT_STREQ(
        dispatchPolicyName(DispatchPolicy::ClusteredPairing),
        "ClusteredPairing");
}

} // namespace
} // namespace v10
