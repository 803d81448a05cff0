/**
 * @file
 * Tests for trace serialization: round-trip fidelity and malformed
 * input rejection.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "workload/model_zoo.h"
#include "workload/trace_io.h"

#ifndef V10_TEST_DATA_DIR
#error "V10_TEST_DATA_DIR must be defined by the build"
#endif

namespace v10 {
namespace {

TEST(TraceIo, RoundTripPreservesEverything)
{
    const NpuConfig cfg;
    const ModelProfile &m = findModel("DLRM");
    const RequestTrace original = generateTrace(m, 32, cfg);

    std::stringstream ss;
    saveTrace(ss, TraceHeader{m.abbrev, 32}, original);

    TraceHeader header;
    const RequestTrace loaded = parseTrace(ss, header).take();

    EXPECT_EQ(header.model, "DLRM");
    EXPECT_EQ(header.batch, 32);
    ASSERT_EQ(loaded.ops.size(), original.ops.size());
    for (std::size_t i = 0; i < original.ops.size(); ++i) {
        const auto &a = original.ops[i];
        const auto &b = loaded.ops[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.computeCycles, b.computeCycles);
        EXPECT_EQ(a.dmaBytes, b.dmaBytes);
        EXPECT_EQ(a.workingSetBytes, b.workingSetBytes);
        EXPECT_EQ(a.deps, b.deps);
        if (a.kind == OpKind::SA)
            EXPECT_EQ(a.saRows, b.saRows);
        else
            EXPECT_EQ(a.vuElements, b.vuElements);
    }
    EXPECT_EQ(loaded.saCycles, original.saCycles);
    EXPECT_EQ(loaded.vuCycles, original.vuCycles);
    EXPECT_EQ(loaded.totalDmaBytes, original.totalDmaBytes);
    EXPECT_NEAR(loaded.totalFlops / original.totalFlops, 1.0, 1e-4);
}

TEST(TraceIo, FileRoundTrip)
{
    const NpuConfig cfg;
    const ModelProfile &m = findModel("MNST");
    const RequestTrace original = generateTrace(m, 8, cfg);
    const std::string path =
        ::testing::TempDir() + "/v10_trace_test.txt";
    ASSERT_TRUE(saveTraceFile(path, TraceHeader{m.abbrev, 8}, original));
    TraceHeader header;
    const RequestTrace loaded = parseTraceFile(path, header).take();
    EXPECT_EQ(header.model, "MNST");
    EXPECT_EQ(loaded.ops.size(), original.ops.size());
}

TEST(TraceIoParse, ErrorsCarryLineAndToken)
{
    TraceHeader header;
    std::stringstream ss("# v10-trace v1\nbogus header\n");
    const Result<RequestTrace> r = parseTrace(ss, header, "unit");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().source, "unit");
    EXPECT_EQ(r.error().line, 2u);
    EXPECT_NE(r.error().message.find("header"), std::string::npos);
    // toString() renders "source:line: message".
    EXPECT_NE(r.error().toString().find("unit:2"),
              std::string::npos);

    const std::string missing = "/nonexistent/path/trace.txt";
    const Result<RequestTrace> m = parseTraceFile(missing, header);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.error().source, missing);
    EXPECT_NE(m.error().message.find("cannot open"), std::string::npos);
}

TEST(TraceIoParse, ForwardDependencyIsRecoverableError)
{
    TraceHeader header;
    std::stringstream ss("# v10-trace v1\nmodel X batch 1 ops 2\n"
                         "op 0 SA a 1 1 1 1 1 deps 1\n"
                         "op 1 VU b 1 1 1 1 1 deps\n");
    const Result<RequestTrace> r = parseTrace(ss, header, "unit");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("earlier"), std::string::npos);
    EXPECT_EQ(r.error().line, 3u);
}

TEST(TraceIoParse, OperatorCountMismatchDetected)
{
    TraceHeader header;
    std::stringstream ss("# v10-trace v1\nmodel X batch 1 ops 3\n"
                         "op 0 SA a 1 1 1 1 1 deps\n");
    const Result<RequestTrace> r = parseTrace(ss, header, "unit");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("mismatch"), std::string::npos);
}

TEST(TraceIoParse, TracesShorterThanTwoOperatorsRejected)
{
    // Zero or one operator used to validate and then fail inside the
    // Workload or the engine; the parser now names the header line.
    for (const char *body :
         {"model NCF batch 32 ops 0\n",
          "model NCF batch 32 ops 1\nop 0 SA a 1 1 1 1 1 deps\n"}) {
        TraceHeader header;
        std::stringstream ss(std::string("# v10-trace v1\n") + body);
        const Result<RequestTrace> r = parseTrace(ss, header, "unit");
        ASSERT_FALSE(r.ok()) << body;
        EXPECT_NE(r.error().message.find("at least 2 operators"),
                  std::string::npos);
        EXPECT_EQ(r.error().line, 2u);
    }
}

TEST(TraceIoParse, CorpusEveryBadTraceRejected)
{
    const std::string dir =
        std::string(V10_TEST_DATA_DIR) + "/bad_traces";
    std::size_t checked = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".txt")
            continue;
        TraceHeader header;
        const Result<RequestTrace> r =
            parseTraceFile(entry.path().string(), header);
        EXPECT_FALSE(r.ok()) << entry.path();
        if (!r.ok()) {
            EXPECT_FALSE(r.error().message.empty());
            EXPECT_EQ(r.error().source, entry.path().string());
        }
        ++checked;
    }
    // Keep in sync with tests/data/bad_traces/.
    EXPECT_GE(checked, 15u);
}

TEST(TraceIoParse, GoodTraceStillParsesThroughResultApi)
{
    const NpuConfig cfg;
    const RequestTrace original =
        generateTrace(findModel("MNST"), 8, cfg);
    std::stringstream ss;
    saveTrace(ss, TraceHeader{"MNST", 8}, original);
    TraceHeader header;
    const Result<RequestTrace> r = parseTrace(ss, header, "unit");
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(r.value().ops.size(), original.ops.size());
}

} // namespace
} // namespace v10
