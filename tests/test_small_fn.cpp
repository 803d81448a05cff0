/**
 * @file
 * Unit tests for SmallFn: inline storage, heap spill and move-only
 * ownership. Runs under ASan in CI, so lifetime bugs (double destroy, leaks, use-after-move of the
 * stored closure) fail loudly.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <type_traits>
#include <utility>

#include "common/small_fn.h"
#include "sim/event_queue.h"

namespace v10 {
namespace {

using Fn = SmallFn<void()>;
using IntFn = SmallFn<int(int)>;

/** Counts constructions and destructions of each live instance. */
struct Tracked
{
    static int live;
    static int destroyed;

    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked()
    {
        --live;
        ++destroyed;
    }
    void operator()() const {}
};

int Tracked::live = 0;
int Tracked::destroyed = 0;

TEST(SmallFn, EmptyByDefault)
{
    Fn fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    Fn null_fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(SmallFn, InvokesSmallClosureInline)
{
    int hits = 0;
    Fn fn([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFn, PassesArgumentsAndReturnsValues)
{
    int base = 100;
    IntFn fn([&base](int x) { return base + x; });
    EXPECT_EQ(fn(23), 123);
    base = 200;
    EXPECT_EQ(fn(1), 201);
}

TEST(SmallFn, MoveTransfersOwnership)
{
    int hits = 0;
    Fn a([&hits] { ++hits; });
    Fn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    Fn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DestroysInlineClosureExactlyOnce)
{
    Tracked::live = 0;
    Tracked::destroyed = 0;
    {
        Fn fn{Tracked{}};
        EXPECT_EQ(Tracked::live, 1);
        Fn moved(std::move(fn));
        // Relocation may construct+destroy temporaries, but exactly
        // one instance stays live inside the holder.
        EXPECT_EQ(Tracked::live, 1);
        moved();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallFn, NullAssignmentDestroysHeldClosure)
{
    Tracked::live = 0;
    Fn fn{Tracked{}};
    EXPECT_EQ(Tracked::live, 1);
    fn = nullptr;
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, EmplaceDestroysHeldClosureAndBuildsInPlace)
{
    Tracked::live = 0;
    Fn fn{Tracked{}};
    EXPECT_EQ(Tracked::live, 1);
    int hits = 0;
    fn.emplace([&hits] { ++hits; });
    EXPECT_EQ(Tracked::live, 0);
    fn();
    EXPECT_EQ(hits, 1);
    fn.emplace(Tracked{});
    EXPECT_EQ(Tracked::live, 1);
    fn = nullptr;
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallFn, SelfMoveAssignIsHarmless)
{
    int hits = 0;
    Fn fn([&hits] { ++hits; });
    Fn &alias = fn;
    fn = std::move(alias);
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    EXPECT_EQ(hits, 1);
}

TEST(SmallFn, LargeClosureSpillsToHeapAndWorks)
{
    // Capture well past the inline buffer.
    std::array<int, 64> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<int>(i);
    static_assert(sizeof(big) > Fn::kInlineBytes);
    int sum = 0;
    Fn fn([big, &sum] {
        for (int v : big)
            sum += v;
    });
    Fn moved(std::move(fn));
    moved();
    EXPECT_EQ(sum, (63 * 64) / 2);
}

TEST(SmallFn, LargeClosureDestroysOnce)
{
    Tracked::live = 0;
    struct BigTracked : Tracked
    {
        unsigned char pad[96] = {};
    };
    static_assert(sizeof(BigTracked) > Fn::kInlineBytes);
    {
        Fn fn{BigTracked{}};
        EXPECT_EQ(Tracked::live, 1);
        Fn moved(std::move(fn));
        EXPECT_EQ(Tracked::live, 1);
        moved();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallFn, NonTrivialCaptureSurvivesMoves)
{
    std::string tag(100, 'x'); // forces the spill path
    std::string out;
    Fn a([tag, &out] { out = tag; });
    Fn b(std::move(a));
    Fn c(std::move(b));
    c();
    EXPECT_EQ(out, std::string(100, 'x'));
}

TEST(SmallFn, EventQueueDestroysNonTrivialCaptureOnce)
{
    static_assert(!std::is_trivially_destructible_v<Tracked>);
    Tracked::live = 0;
    {
        EventQueue q;
        int fired = 0;
        q.schedule(1, [t = Tracked{}, &fired] {
            t();
            ++fired;
        });
        const EventId cancelled = q.schedule(2, [t = Tracked{}] { t(); });
        // Spills to the heap, so its destroy is the out-of-line one.
        q.schedule(3, [t = Tracked{}, pad = std::array<char, 64>{}] {
            t();
            (void)pad;
        });
        EXPECT_EQ(Tracked::live, 3);

        Cycles clock = 0;
        EXPECT_TRUE(q.fireNext(clock));
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(Tracked::live, 2); // released after it ran

        q.cancel(cancelled);
        EXPECT_EQ(Tracked::live, 1);
        q.cancel(cancelled);
        EXPECT_EQ(Tracked::live, 1);
    }
    // The last one was still pending when the queue went away.
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallFnDeath, CallingEmptyPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Fn fn;
    EXPECT_DEATH(fn(), "empty");
}

} // namespace
} // namespace v10
