/**
 * @file
 * Tests for the one-command evaluation report generator.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "v10/report.h"

namespace v10 {
namespace {

TEST(Report, ContainsHeadlineAndAllPairs)
{
    ReportOptions options;
    options.requests = 4;
    options.title = "test report";
    std::ostringstream os;
    ASSERT_TRUE(writeEvaluationReport(os, options));
    const std::string text = os.str();

    EXPECT_NE(text.find("# test report"), std::string::npos);
    EXPECT_NE(text.find("NPU utilization"), std::string::npos);
    EXPECT_NE(text.find("Fig. 18"), std::string::npos);
    EXPECT_NE(text.find("Fig. 21"), std::string::npos);
    // All eleven pairs appear.
    for (const char *pair :
         {"BERT+NCF", "BERT+DLRM", "RNRS+MRCN", "DLRM+RsNt"})
        EXPECT_NE(text.find(pair), std::string::npos) << pair;
    // Markdown table structure.
    EXPECT_NE(text.find("|---|"), std::string::npos);
}

TEST(Report, WritesToFile)
{
    ReportOptions options;
    options.requests = 3;
    const std::string path =
        ::testing::TempDir() + "/v10_report_test.md";
    ASSERT_TRUE(writeEvaluationReportFile(path, options));
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_GT(ss.str().size(), 1000u);
}

TEST(Report, UnwritablePathsReturnErrorsNamingThem)
{
    ReportOptions options;
    options.requests = 3;
    const Status md =
        writeEvaluationReportFile("/nonexistent/dir/x.md", options);
    ASSERT_FALSE(md);
    EXPECT_EQ(md.error().source, "/nonexistent/dir/x.md");
    options.statsJsonPath = "/nonexistent/dir/x.json";
    std::ostringstream os;
    const Status json = writeEvaluationReport(os, options);
    ASSERT_FALSE(json);
    EXPECT_EQ(json.error().source, "/nonexistent/dir/x.json");
    // The path is checked before the grid runs.
    EXPECT_EQ(os.str(), "");
}

} // namespace
} // namespace v10
