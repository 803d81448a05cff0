/**
 * @file
 * Tests for the collocation predictors: the heuristic capacity
 * check, the clustering pipeline on synthetic features, confusion
 * arithmetic, and a reduced-size end-to-end study.
 */

#include <gtest/gtest.h>

#include "v10/collocation_advisor.h"

namespace v10 {
namespace {

WorkloadFeatures
makeFeatures(const std::string &model, double sa, double vu,
             double hbm)
{
    WorkloadFeatures f;
    f.model = model;
    f.batch = 32;
    f.values = {sa, vu, hbm, 1.0, 0.5, 1.5, 1.0,
                sa + vu > 0 ? sa / (sa + vu) : 0.0};
    return f;
}

TEST(Heuristic, AcceptsComplementaryPairs)
{
    const auto sa_heavy = makeFeatures("A", 0.85, 0.08, 0.25);
    const auto vu_heavy = makeFeatures("B", 0.20, 0.65, 0.45);
    EXPECT_TRUE(heuristicPredict(sa_heavy, vu_heavy));
}

TEST(Heuristic, RejectsSaturatedSaPairs)
{
    const auto a = makeFeatures("A", 0.85, 0.08, 0.25);
    const auto b = makeFeatures("B", 0.80, 0.10, 0.20);
    EXPECT_FALSE(heuristicPredict(a, b));
}

TEST(Heuristic, RejectsHbmOversubscription)
{
    const auto a = makeFeatures("A", 0.30, 0.40, 0.70);
    const auto b = makeFeatures("B", 0.20, 0.30, 0.60);
    EXPECT_FALSE(heuristicPredict(a, b));
}

TEST(SchemeOutcome, ConfusionRates)
{
    SchemeOutcome o;
    o.tp = 8;
    o.fn = 2;
    o.tn = 6;
    o.fp = 4;
    EXPECT_DOUBLE_EQ(o.accuracy(), 0.7);
    EXPECT_DOUBLE_EQ(o.tpRate(), 0.8);
    EXPECT_DOUBLE_EQ(o.fnRate(), 0.2);
    EXPECT_DOUBLE_EQ(o.tnRate(), 0.6);
    EXPECT_DOUBLE_EQ(o.fpRate(), 0.4);
    EXPECT_DOUBLE_EQ(o.tpRate() + o.fnRate(), 1.0);
    EXPECT_DOUBLE_EQ(o.tnRate() + o.fpRate(), 1.0);
}

TEST(SchemeOutcome, EmptyIsZero)
{
    const SchemeOutcome o;
    EXPECT_DOUBLE_EQ(o.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(o.tpRate(), 0.0);
}

TEST(Clustering, LearnsSyntheticStructure)
{
    // Two clear groups: SA-bound and VU-bound synthetic workloads.
    // Cross-group pairs perform 1.6x; same-group pairs 1.05x.
    std::vector<WorkloadFeatures> training;
    for (int i = 0; i < 4; ++i)
        training.push_back(makeFeatures(
            "SA" + std::to_string(i), 0.85 + 0.01 * i, 0.05, 0.2));
    for (int i = 0; i < 4; ++i)
        training.push_back(makeFeatures(
            "VU" + std::to_string(i), 0.10, 0.70 + 0.01 * i, 0.5));
    auto perf = [](const std::string &a, const std::string &b) {
        const bool a_sa = a[0] == 'S';
        const bool b_sa = b[0] == 'S';
        return a_sa == b_sa ? 1.05 : 1.6;
    };

    ClusteringCollocator::Options opts;
    opts.clusters = 2;
    ClusteringCollocator collocator(opts);
    collocator.train(training, perf);

    const auto sa_test = makeFeatures("SAx", 0.83, 0.06, 0.22);
    const auto vu_test = makeFeatures("VUx", 0.12, 0.72, 0.48);
    EXPECT_TRUE(collocator.predictBeneficial(sa_test, vu_test));
    EXPECT_FALSE(collocator.predictBeneficial(sa_test, sa_test));
    EXPECT_FALSE(collocator.predictBeneficial(vu_test, vu_test));
    EXPECT_NEAR(collocator.predictPerf(sa_test, vu_test), 1.6, 0.01);
    EXPECT_NE(collocator.clusterOf(sa_test),
              collocator.clusterOf(vu_test));
}

TEST(Clustering, TrainingLabelsCoverSamples)
{
    std::vector<WorkloadFeatures> training;
    for (int i = 0; i < 10; ++i) {
        std::string name = "W";
        name += std::to_string(i);
        training.push_back(
            makeFeatures(name, 0.1 * i, 1.0 - 0.1 * i, 0.3));
    }
    ClusteringCollocator::Options opts;
    opts.clusters = 3;
    ClusteringCollocator collocator(opts);
    collocator.train(training,
                     [](const std::string &, const std::string &) {
                         return 1.3;
                     });
    EXPECT_EQ(collocator.trainingLabels().size(), 10u);
    EXPECT_EQ(collocator.clusters(), 3u);
}

TEST(ClusteringDeath, Misuse)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusteringCollocator collocator;
    const auto f = makeFeatures("X", 0.5, 0.3, 0.2);
    EXPECT_DEATH(collocator.clusterOf(f), "not trained");
    std::vector<WorkloadFeatures> tiny = {f};
    EXPECT_DEATH(collocator.train(
                     tiny,
                     [](const std::string &, const std::string &) {
                         return 1.0;
                     }),
                 "training");
    ClusteringCollocator::Options bad;
    bad.clusters = 0;
    EXPECT_DEATH(ClusteringCollocator{bad}, "hyper");
}

TEST(CollocationStudy, EndToEndSmallStudy)
{
    // A reduced-request study exercising the full Table 2 pipeline.
    CollocationStudy study(NpuConfig{}, 4);
    study.build();
    EXPECT_EQ(study.models().size(), 11u);

    const double perf = study.pairPerf("BERT", "NCF");
    EXPECT_GT(perf, 1.2); // complementary pair clearly benefits
    const double same = study.pairPerf("BERT", "RNRS");
    EXPECT_LT(same, perf); // SA-contending pair benefits less

    const SchemeOutcome random = study.evaluateRandom();
    EXPECT_DOUBLE_EQ(random.tpRate(), 1.0);
    EXPECT_DOUBLE_EQ(random.tnRate(), 0.0);
    EXPECT_NEAR(random.accuracy(), study.positiveRate(), 1e-9);

    const SchemeOutcome clustering = study.evaluateClustering();
    EXPECT_GT(clustering.accuracy(), random.accuracy());
    EXPECT_GT(clustering.tnRate(), 0.3);
    EXPECT_GT(clustering.worstPerf, 1.0);
}

TEST(CollocationStudy, GroundTruthSortedAndSymmetric)
{
    CollocationStudy study(NpuConfig{}, 4);
    const auto truth = study.groundTruth();
    EXPECT_EQ(truth.size(), 55u); // C(11, 2)
    for (std::size_t i = 1; i < truth.size(); ++i)
        EXPECT_LE(truth[i - 1].second, truth[i].second);
    EXPECT_DOUBLE_EQ(study.pairPerf("BERT", "NCF"),
                     study.pairPerf("NCF", "BERT"));
}

} // namespace
} // namespace v10
