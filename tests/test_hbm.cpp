/**
 * @file
 * Tests for the processor-sharing HBM bandwidth model: transfer
 * timing, fair sharing, cancellation, and utilization accounting.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "npu/hbm.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

TEST(Hbm, SingleTransferAtPeakBandwidth)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0); // 100 B/cycle
    Cycles done_at = 0;
    hbm.startTransfer(10000, [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, 100u);
    EXPECT_DOUBLE_EQ(hbm.bytesMoved(), 10000.0);
}

TEST(Hbm, TwoEqualStreamsShareBandwidth)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    Cycles a_done = 0;
    Cycles b_done = 0;
    hbm.startTransfer(5000, [&] { a_done = sim.now(); });
    hbm.startTransfer(5000, [&] { b_done = sim.now(); });
    sim.run();
    // Each gets 50 B/cycle: both finish at ~100 cycles.
    EXPECT_EQ(a_done, 100u);
    EXPECT_EQ(b_done, 100u);
}

TEST(Hbm, ShortStreamFreesBandwidthForLong)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    Cycles short_done = 0;
    Cycles long_done = 0;
    hbm.startTransfer(20000, [&] { long_done = sim.now(); });
    hbm.startTransfer(2000, [&] { short_done = sim.now(); });
    sim.run();
    // Short: 2000 B at 50 B/cyc = 40 cycles. Long: 20000 B total,
    // 2000 B by cycle 40, remaining 18000 at 100 B/cyc = +180.
    EXPECT_EQ(short_done, 40u);
    EXPECT_EQ(long_done, 220u);
}

TEST(Hbm, LateArrivalSlowsExistingStream)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    Cycles a_done = 0;
    hbm.startTransfer(10000, [&] { a_done = sim.now(); });
    sim.at(50, [&] { hbm.startTransfer(10000, [] {}); });
    sim.run();
    // A moves 5000 B alone (50 cyc), then shares: 5000 B at
    // 50 B/cyc = +100 cycles.
    EXPECT_EQ(a_done, 150u);
}

TEST(Hbm, CancelDropsStreamWithoutCallback)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    bool cancelled_fired = false;
    Cycles other_done = 0;
    const DmaStreamId id =
        hbm.startTransfer(10000, [&] { cancelled_fired = true; });
    hbm.startTransfer(10000, [&] { other_done = sim.now(); });
    sim.at(10, [&] { hbm.cancel(id); });
    sim.run();
    EXPECT_FALSE(cancelled_fired);
    // Other: 500 B in the shared first 10 cycles, then full rate.
    EXPECT_EQ(other_done, 105u);
}

TEST(Hbm, ZeroByteTransferCompletesQuickly)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    bool done = false;
    hbm.startTransfer(0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_LE(sim.now(), 1u);
}

TEST(Hbm, UtilizationOverWindow)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    hbm.markWindow();
    hbm.startTransfer(5000, [] {});
    sim.run();
    sim.runUntil(100); // idle tail: 50 busy + 50 idle
    EXPECT_NEAR(hbm.utilization(0), 0.5, 1e-9);
}

TEST(Hbm, WindowBaselineExcludesEarlierTraffic)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    hbm.startTransfer(1000, [] {});
    sim.run();
    const Cycles window_start = sim.now();
    hbm.markWindow();
    hbm.startTransfer(500, [] {});
    sim.run();
    EXPECT_NEAR(hbm.windowBytes(), 500.0, 1e-6);
    EXPECT_NEAR(hbm.utilization(window_start), 1.0, 1e-6);
}

TEST(Hbm, ChainedTransfersFromCallback)
{
    Simulator sim;
    HbmModel hbm(sim, 10.0);
    int completed = 0;
    std::function<void()> chain = [&] {
        ++completed;
        if (completed < 5)
            hbm.startTransfer(100, chain);
    };
    hbm.startTransfer(100, chain);
    sim.run();
    EXPECT_EQ(completed, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Hbm, SimultaneousDrainsFireInStartOrder)
{
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    std::vector<std::pair<int, Cycles>> fired;
    const auto record = [&](int tag) {
        return [&fired, &sim, tag] { fired.emplace_back(tag, sim.now()); };
    };
    hbm.startTransfer(3000, record(0));
    const DmaStreamId middle = hbm.startTransfer(3000, record(1));
    hbm.startTransfer(3000, record(2));
    sim.at(10, [&] { hbm.cancel(middle); });
    sim.run();
    // 1000/3 B each in the first 10 cycles, then 8000/3 B each at
    // 50 B/cycle: 160/3 more cycles, rounded up to cycle 64. Both
    // drain in one completion event and fire in start order.
    EXPECT_EQ(fired, (std::vector<std::pair<int, Cycles>>{{0, 64},
                                                           {2, 64}}));
    EXPECT_EQ(hbm.activeStreams(), 0u);
}

TEST(Hbm, ChainedReissueMatchesHandComputedTimes)
{
    // Two owners keep one transfer each in flight and issue the next
    // from the completion callback, as the engine's DMA prefetch does.
    Simulator sim;
    HbmModel hbm(sim, 100.0);
    struct Owner
    {
        WorkloadId id;
        Bytes bytes;
        int left;
    };
    Owner owners[2] = {{0, 1000, 4}, {1, 3000, 2}};
    std::vector<std::pair<WorkloadId, Cycles>> done;
    std::function<void(Owner &)> issue = [&](Owner &o) {
        --o.left;
        hbm.startTransfer(o.bytes, o.id, [&] {
            done.emplace_back(o.id, sim.now());
            if (o.left > 0)
                issue(o);
        });
    };
    issue(owners[0]);
    issue(owners[1]);
    sim.run();
    // [0,20): 1000 B and 3000 B at 50 B/cycle each; owner 0 finishes
    // and re-issues. [20,40): likewise, owner 1 has 2000 B left. At
    // 60 both have drained their last 1000 B: owner 1 fires first
    // (its stream started first). [60,80): owner 0's last 1000 B next
    // to owner 1's new 3000 B; then 2000 B alone at 100 B/cycle.
    EXPECT_EQ(done, (std::vector<std::pair<WorkloadId, Cycles>>{
                        {0, 20}, {0, 40}, {1, 60}, {0, 60}, {0, 80},
                        {1, 100}}));
    EXPECT_DOUBLE_EQ(hbm.bytesMoved(), 4 * 1000.0 + 2 * 3000.0);
    EXPECT_EQ(sim.now(), 100u);
}

/** Conservation property: total bytes moved equals sum of streams. */
class HbmConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(HbmConservation, BytesConserved)
{
    const int streams = GetParam();
    Simulator sim;
    HbmModel hbm(sim, 471.0);
    double expected = 0.0;
    int done = 0;
    for (int i = 0; i < streams; ++i) {
        const Bytes bytes = 1000u * (i + 1);
        expected += static_cast<double>(bytes);
        // Stagger arrivals to exercise re-sharing.
        sim.at(static_cast<Cycles>(i * 3), [&hbm, bytes, &done] {
            hbm.startTransfer(bytes, [&done] { ++done; });
        });
    }
    sim.run();
    EXPECT_EQ(done, streams);
    EXPECT_NEAR(hbm.bytesMoved(), expected, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Streams, HbmConservation,
                         ::testing::Values(1, 2, 3, 8, 17, 32));

TEST(HbmDeath, NonPositiveOrNanPeakPanics)
{
    // NpuConfig::check rejects these from input, so the model treats
    // them as a caller bug.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulator sim;
    EXPECT_DEATH(HbmModel(sim, 0.0), "peak bandwidth");
    EXPECT_DEATH(HbmModel(sim, std::numeric_limits<double>::quiet_NaN()),
                 "peak bandwidth");
}

} // namespace
} // namespace v10
