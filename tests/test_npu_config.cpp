/**
 * @file
 * Tests for the NPU configuration: Table 5 defaults, unit
 * conversions, the §3.3 context-switch cost constants, and FU
 * scaling.
 */

#include <gtest/gtest.h>

#include <limits>

#include "npu/npu_config.h"
#include "v10/experiment.h"

namespace v10 {
namespace {

TEST(NpuConfig, Table5Defaults)
{
    const NpuConfig cfg;
    EXPECT_EQ(cfg.saDim, 128u);
    EXPECT_EQ(cfg.vuLanes, 1024u);
    EXPECT_EQ(cfg.vuOpsPerLane, 2u);
    EXPECT_DOUBLE_EQ(cfg.freqGHz, 0.7);
    EXPECT_EQ(cfg.vmemBytes, 32_MiB);
    EXPECT_EQ(cfg.hbmBytes, 32_GiB);
    EXPECT_DOUBLE_EQ(cfg.hbmGBps, 330.0);
    EXPECT_EQ(cfg.timeSlice, 32768u);
    EXPECT_TRUE(cfg.check().isOk());
}

TEST(NpuConfig, TimeSliceIsRoughly46Microseconds)
{
    const NpuConfig cfg;
    EXPECT_NEAR(cfg.cyclesToUs(cfg.timeSlice), 46.8, 0.1);
}

TEST(NpuConfig, PeakFlops)
{
    const NpuConfig cfg;
    // 128x128 MACs at 2 FLOPs each.
    EXPECT_DOUBLE_EQ(cfg.peakSaFlopsPerCycle(), 32768.0);
    EXPECT_DOUBLE_EQ(cfg.peakVuFlopsPerCycle(), 2048.0);
    // ~22.9 SA TFLOP/s + 1.4 VU TFLOP/s at 700 MHz.
    EXPECT_NEAR(cfg.peakTflops(), 24.4, 0.1);
}

TEST(NpuConfig, CycleConversionRoundTrips)
{
    const NpuConfig cfg;
    EXPECT_EQ(cfg.usToCycles(46.8114), 32768u);
    EXPECT_NEAR(cfg.cyclesToUs(cfg.usToCycles(877.0)), 877.0, 0.01);
    EXPECT_NEAR(cfg.cyclesToSeconds(700000000), 1.0, 1e-9);
}

TEST(NpuConfig, HbmBytesPerCycle)
{
    const NpuConfig cfg;
    // 330 GB/s at 0.7 GHz = ~471 bytes/cycle.
    EXPECT_NEAR(cfg.hbmBytesPerCycle(), 471.4, 0.1);
}

TEST(NpuConfig, SaContextSwitchCostsFromPaper)
{
    const NpuConfig cfg;
    // §3.3: 384 cycles per switch; 96 KB of context per SA.
    EXPECT_EQ(cfg.saContextSwitchCycles(), 384u);
    EXPECT_EQ(cfg.saContextBytes(), 96u * 1024);
}

TEST(NpuConfig, ScaledForFusScalesHbm)
{
    const NpuConfig base;
    const NpuConfig scaled = base.scaledForFus(4, 4);
    EXPECT_EQ(scaled.numSa, 4u);
    EXPECT_EQ(scaled.numVu, 4u);
    EXPECT_DOUBLE_EQ(scaled.hbmGBps, 4 * 330.0);
    EXPECT_TRUE(scaled.check().isOk());
}

TEST(NpuConfig, SummaryMentionsKeyParameters)
{
    const std::string s = NpuConfig{}.summary();
    EXPECT_NE(s.find("128x128"), std::string::npos);
    EXPECT_NE(s.find("330"), std::string::npos);
    EXPECT_NE(s.find("32768"), std::string::npos);
}

TEST(NpuConfigCheck, StructuredErrorsNameTheField)
{
    EXPECT_TRUE(NpuConfig{}.check().isOk());

    NpuConfig cfg;
    cfg.saDim = 100; // not a multiple of 8
    Status s = cfg.check();
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.error().token, "saDim");
    EXPECT_EQ(s.error().source, "NpuConfig");

    cfg = NpuConfig{};
    cfg.numVu = 0;
    EXPECT_EQ(cfg.check().error().token, "numVu");

    cfg = NpuConfig{};
    cfg.hbmGBps = 0.0;
    EXPECT_EQ(cfg.check().error().token, "hbmGBps");

    cfg = NpuConfig{};
    cfg.timeSlice = 0;
    EXPECT_EQ(cfg.check().error().token, "timeSlice");

    cfg = NpuConfig{};
    cfg.freqGHz = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(cfg.check().isOk());

    cfg = NpuConfig{};
    cfg.dmaPrefetchDepth = 0;
    EXPECT_EQ(cfg.check().error().token, "dmaPrefetchDepth");
}

TEST(NpuConfigDeath, InvalidConfigsRejected)
{
    // A config that fails check() violates the constructor
    // precondition of the consumers built from it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NpuConfig cfg;
    cfg.saDim = 100; // not a multiple of 8
    EXPECT_DEATH(ExperimentRunner{cfg}, "saDim");
    cfg = NpuConfig{};
    cfg.numSa = 0;
    EXPECT_DEATH(ExperimentRunner{cfg}, "at least one");
    cfg = NpuConfig{};
    cfg.freqGHz = 0.0;
    EXPECT_DEATH(ExperimentRunner{cfg}, "frequency");
    cfg = NpuConfig{};
    cfg.hbmGBps = -1.0;
    EXPECT_DEATH(ExperimentRunner{cfg}, "bandwidth");
    cfg = NpuConfig{};
    cfg.timeSlice = 0;
    EXPECT_DEATH(ExperimentRunner{cfg}, "slice");
}

} // namespace
} // namespace v10
