/**
 * @file
 * The ablation and extension benches' shared option parser: a bad
 * or zero --requests, or a bad --jobs, is a usage error (exit 2)
 * before anything runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.h"

namespace v10::bench {
namespace {

BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return BenchOptions::parse(static_cast<int>(argv.size()),
                               argv.data(), "test bench");
}

TEST(BenchOptions, ParsesRequestsQuickAndJobs)
{
    EXPECT_EQ(parseArgs({}).requests, 25u);
    EXPECT_EQ(parseArgs({"--requests", "7"}).requests, 7u);
    const BenchOptions quick = parseArgs({"--quick", "--jobs", "3"});
    EXPECT_TRUE(quick.quick);
    EXPECT_EQ(quick.requests, 8u);
    EXPECT_EQ(quick.jobs, 3u);
}

TEST(BenchOptions, BadOrZeroRequestsExitWithCode2)
{
    for (const char *value : {"abc", "0", "-3", "4x", ""})
        EXPECT_EXIT(parseArgs({"--requests", value}),
                    ::testing::ExitedWithCode(2), "--requests expects")
            << "value '" << value << "'";
}

TEST(BenchOptions, BadJobsExitWithCode2)
{
    for (const char *value : {"abc", "-3", "1025"})
        EXPECT_EXIT(parseArgs({"--jobs", value}),
                    ::testing::ExitedWithCode(2), "--jobs: ")
            << "value '" << value << "'";
}

} // namespace
} // namespace v10::bench
