/**
 * @file
 * End-to-end tests of the v10sim command-line tool, driving the
 * real binary (path injected by CMake) through its subcommands.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace v10 {
namespace {

#ifndef V10SIM_PATH
#error "V10SIM_PATH must be defined by the build"
#endif

/** Run the CLI and capture stdout; stderr is discarded unless
 * @p with_stderr merges it into the captured text. */
std::pair<int, std::string>
runCli(const std::string &args, bool with_stderr = false)
{
    const std::string cmd = std::string(V10SIM_PATH) + " " + args +
                            (with_stderr ? " 2>&1" : " 2>/dev/null");
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> buf{};
    while (fgets(buf.data(), buf.size(), pipe) != nullptr)
        out += buf.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

TEST(Cli, ZooListsElevenModels)
{
    const auto [rc, out] = runCli("zoo");
    EXPECT_EQ(rc, 0);
    for (const char *name : {"BERT", "DLRM", "Transformer",
                             "ShapeMask", "ResNet-RS"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(Cli, ProfilePrintsUtilization)
{
    const auto [rc, out] = runCli("profile --model NCF");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("FLOPS utilization"), std::string::npos);
    EXPECT_NE(out.find("MXU / VPU temporal"), std::string::npos);
}

TEST(Cli, ProfileReportsOom)
{
    const auto [rc, out] =
        runCli("profile --model SMask --batch 2048");
    EXPECT_EQ(rc, 1);
    EXPECT_NE(out.find("does not fit"), std::string::npos);
}

TEST(Cli, RunPairPrintsStp)
{
    const auto [rc, out] =
        runCli("run --models MNST,NCF --requests 4");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("STP"), std::string::npos);
    EXPECT_NE(out.find("MNST@32"), std::string::npos);
    EXPECT_NE(out.find("NCF@32"), std::string::npos);
}

TEST(Cli, RunWithSchedulerSelection)
{
    const auto [rc, out] = runCli(
        "run --models MNST,NCF --scheduler PMT --requests 4");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("PMT"), std::string::npos);
    // PMT never overlaps.
    EXPECT_NE(out.find("overlap 0.0%"), std::string::npos);
}

TEST(Cli, RunTableIsUnchangedByObservers)
{
    // Observers are passive: the printed run (from the config line
    // through the tenant table) is the same with every observer
    // attached, and matches the report grid's BERT+DLRM cell.
    const std::string dir = ::testing::TempDir();
    const auto table = [](const std::string &out) {
        const std::size_t at = out.find("V10-Full on");
        EXPECT_NE(at, std::string::npos) << out;
        return at == std::string::npos ? out : out.substr(at);
    };
    const auto [rc_plain, plain] = runCli("run --models BERT,DLRM");
    const auto [rc_obs, observed] = runCli(
        "run --models BERT,DLRM --stats-json " + dir +
        "/cli_obs.json --trace-out " + dir +
        "/cli_obs.jsonl --timeline " + dir +
        "/cli_obs_timeline.json --samples-csv " + dir + "/cli_obs.csv");
    ASSERT_EQ(rc_plain, 0);
    ASSERT_EQ(rc_obs, 0);
    EXPECT_EQ(table(observed), table(plain));
    EXPECT_NE(plain.find("138.2"), std::string::npos) << plain;
}

TEST(Cli, TraceWritesFile)
{
    const std::string path =
        ::testing::TempDir() + "/cli_trace.txt";
    const auto [rc, out] =
        runCli("trace --model MNST --out " + path);
    EXPECT_EQ(rc, 0);
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
}

/** Slurp a file written by the CLI under test. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Blank the manifest's wall-clock line so reports can be diffed. */
std::string
stripWallSeconds(std::string text)
{
    std::istringstream in(text);
    std::ostringstream os;
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"wall_seconds\"") == std::string::npos)
            os << line << '\n';
    return os.str();
}

TEST(Cli, LogLevelFlagIsAcceptedEverywhere)
{
    EXPECT_EQ(runCli("zoo --log-level debug").first, 0);
    EXPECT_EQ(runCli("zoo --log-level silent").first, 0);
    // Unknown levels are a usage error: exit code 2.
    EXPECT_EQ(runCli("zoo --log-level loud").first, 2);
}

TEST(Cli, UsageErrorsExitWithCode2)
{
    // Unknown model / scheduler.
    EXPECT_EQ(runCli("profile --model NOPE").first, 2);
    EXPECT_EQ(runCli("run --models MNST,NOPE --requests 2").first,
              2);
    EXPECT_EQ(
        runCli("run --models MNST,NCF --scheduler FIFO").first, 2);
    // Numbers are parsed strictly: trailing garbage is an error,
    // not a silent truncation.
    EXPECT_EQ(
        runCli("run --models MNST,NCF --requests 4x").first, 2);
    EXPECT_EQ(runCli("profile --model NCF --batch banana").first,
              2);
    // Invalid hardware configuration.
    EXPECT_EQ(runCli("run --models MNST,NCF --slice 0").first, 2);
    // Malformed flag syntax.
    EXPECT_EQ(runCli("run models").first, 2);
    EXPECT_EQ(runCli("run --models").first, 2);
    // Bad fault specs.
    EXPECT_EQ(runCli("run --models MNST,NCF --requests 2 "
                     "--faults gremlins:rate=0.5")
                  .first,
              2);
    EXPECT_EQ(runCli("run --models MNST,NCF --requests 2 "
                     "--faults runaway:rate=2")
                  .first,
              2);
    // Tenant mixes, request targets and fleet sizes are input too:
    // each error exits 2 with a message naming the bad value.
    const std::pair<std::string, std::string> cases[] = {
        {"run --models BERT,NCF --priorities 0,1 --requests 2",
         "priority"},
        {"run --models BERT,NCF --rps -5,1 --requests 2",
         "arrival rate"},
        {"run --models BERT --requests 0", "request target"},
        {"report --requests 0 --out " + ::testing::TempDir() +
             "/never.md",
         "--requests"},
        {"advise --models BERT,NCF,MNST --cores 0", "fleet has 0"},
        {"advise --models BERT,NCF,MNST,RNRS --cores 1",
         "fleet has 1"},
    };
    for (const auto &[args, needle] : cases) {
        const auto [rc, out] = runCli(args, true);
        EXPECT_EQ(rc, 2) << args;
        EXPECT_NE(out.find(needle), std::string::npos) << out;
    }
}

TEST(Cli, UnknownFlagsAreUsageErrors)
{
    // Each subcommand accepts a fixed flag set: a misspelled or
    // retired flag exits 2 and names the flag, instead of being
    // silently ignored while the run uses its default.
    const auto [rc, out] = runCli(
        "run --models MNST,NCF --reqests 9 --no-such-flag 7", true);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(out.find("--reqests"), std::string::npos) << out;
    // A flag valid for one command is still unknown to another.
    EXPECT_EQ(runCli("zoo --models MNST").first, 2);
    EXPECT_EQ(runCli("validate --requests 2").first, 2);
}

TEST(Cli, EngineJobsFlagParsesStrictly)
{
    // --engine-jobs is retired (the simulator has one serial event
    // queue). Scripts that still pass it must fail loudly: every
    // form, including the values that used to be accepted, is a
    // usage error (exit 2) that names the flag.
    const auto [rc_report, out_report] =
        runCli("report --engine-jobs 2", true);
    EXPECT_EQ(rc_report, 2);
    EXPECT_NE(out_report.find("--engine-jobs"), std::string::npos)
        << out_report;
    for (const char *value : {"0", "-3", "4x", "", "2", "auto"}) {
        const auto [rc, out] = runCli(
            std::string("run --models MNST,NCF --requests 2 "
                        "--engine-jobs ") + value,
            true);
        EXPECT_EQ(rc, 2) << "value '" << value << "'";
        EXPECT_NE(out.find("--engine-jobs"), std::string::npos)
            << out;
    }
}

TEST(Cli, FaultRunCompletesAndReportsInjections)
{
    const auto [rc, out] = runCli(
        "run --models MNST,NCF --requests 4 "
        "--faults hbm-stall:rate=0.5:mag=2000 --fault-seed 7");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("faults:"), std::string::npos);
    EXPECT_NE(out.find("STP"), std::string::npos);
}

TEST(Cli, FaultRunStatsJsonIsDeterministic)
{
    const std::string a = ::testing::TempDir() + "/cli_faults_a.json";
    const std::string b = ::testing::TempDir() + "/cli_faults_b.json";
    const std::string flags =
        "run --models MNST,NCF --requests 4 "
        "--faults runaway:rate=0.2:mag=4,sa-corrupt:rate=0.3 "
        "--fault-seed 11 --quarantine 50 --stats-json ";
    ASSERT_EQ(runCli(flags + a).first, 0);
    ASSERT_EQ(runCli(flags + b).first, 0);
    // The manifest's wall_seconds is wall-clock time; everything
    // else must be bit-identical across the two runs.
    const std::string ja = stripWallSeconds(readFile(a));
    EXPECT_EQ(ja, stripWallSeconds(readFile(b)));
    // And faults actually fired.
    const JsonValue doc = JsonValue::parse(ja).value();
    EXPECT_GT(
        doc.find("run")->find("faults_injected")->number, 0.0);
}

TEST(Cli, AbortedRunExitsWithCode1AndWritesDiagnostics)
{
    const std::string dir = ::testing::TempDir() + "/cli_diag";
    const auto [rc, out] = runCli(
        "run --models MNST,NCF --requests 50 --cycle-budget 20000 "
        "--watchdog 10000 --diag-dir " + dir);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(out.find("run aborted"), std::string::npos);
    const JsonValue doc =
        JsonValue::parse(readFile(dir + "/diagnostics.json")).value();
    EXPECT_TRUE(doc.has("reason"));
    EXPECT_TRUE(doc.has("tenants"));
}

#ifndef V10_TEST_DATA_DIR
#error "V10_TEST_DATA_DIR must be defined by the build"
#endif

TEST(Cli, ValidateAcceptsGoodTraceAndFaultPlan)
{
    const std::string trace =
        ::testing::TempDir() + "/cli_validate_trace.txt";
    ASSERT_EQ(runCli("trace --model MNST --out " + trace).first, 0);
    const auto [rc, out] = runCli(
        "validate --trace " + trace +
        " --faults dma-timeout:rate=0.1");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("OK"), std::string::npos);
}

TEST(Cli, ValidateRejectsEveryCorpusTrace)
{
    // Mirrors the CI corpus-replay gate: every corrupt trace must
    // exit with the usage/parse code, never crash or hang.
    const std::string dir =
        std::string(V10_TEST_DATA_DIR) + "/bad_traces";
    const char *corpus[] = {
        "empty.txt",         "bad_magic.txt",
        "missing_header.txt", "malformed_header.txt",
        "zero_batch.txt",    "malformed_op.txt",
        "bad_op_kind.txt",   "zero_cycles.txt",
        "negative_flops.txt", "forward_dep.txt",
        "malformed_deps.txt", "count_mismatch.txt",
        "unknown_model.txt", "zero_ops.txt",
        "one_op.txt",
    };
    for (const char *file : corpus)
        EXPECT_EQ(
            runCli("validate --trace " + dir + "/" + file).first, 2)
            << file;
    EXPECT_EQ(runCli("validate --trace /nonexistent/t.txt").first,
              2);
    EXPECT_EQ(runCli("validate").first, 2);
}

/** A committed golden output under tests/data/golden/. A mismatch
 * fails with gtest's line diff of the two documents. */
std::string
golden(const std::string &name)
{
    return readFile(std::string(V10_TEST_DATA_DIR) + "/golden/" + name);
}

TEST(Cli, ReportMatchesGolden)
{
    // The whole paper reproduction, byte for byte: report.md and the
    // grid stats JSON (minus its wall-clock line) must not move
    // unless a change means to move them.
    const std::string md = ::testing::TempDir() + "/cli_golden.md";
    const std::string json =
        ::testing::TempDir() + "/cli_golden_stats.json";
    ASSERT_EQ(
        runCli("report --out " + md + " --stats-json " + json).first,
        0);
    EXPECT_EQ(readFile(md), golden("report.md"));
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("report_stats.json"));
}

TEST(Cli, FaultRunStatsJsonMatchesGolden)
{
    const std::string json =
        ::testing::TempDir() + "/cli_golden_faults.json";
    ASSERT_EQ(runCli("run --models MNST,NCF --requests 6 "
                     "--faults runaway:rate=0.2:mag=4 --fault-seed 11 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("run_faults_stats.json"));
}

TEST(Cli, WideCoreRunStatsJsonMatchesGolden)
{
    // Sixteen tenants on an (8,8) core: the widest event-queue user
    // the CLI reaches (20 live events at peak).
    const std::string json =
        ::testing::TempDir() + "/cli_golden_wide_core.json";
    ASSERT_EQ(runCli("run --models BERT,NCF,RsNt,DLRM,MNST,SMask,RNRS,"
                     "ENet,BERT,NCF,RsNt,DLRM,MNST,SMask,RNRS,ENet "
                     "--sas 8 --vus 8 --requests 2 --stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("run_wide_core_stats.json"));
}

TEST(Cli, RunSamplesMatchGolden)
{
    // An interval that does not divide the run, so the last row is a
    // partial one off the tick grid; the rows mix +0 cells, cells that
    // repeat the row above and non-integer rates.
    const std::string dir = ::testing::TempDir();
    const std::string json = dir + "/cli_golden_samples.json";
    const std::string csv = dir + "/cli_golden_samples.csv";
    ASSERT_EQ(runCli("run --models MNST,NCF --requests 2 "
                     "--sample-interval 7919 --stats-json " +
                     json + " --samples-csv " + csv)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("run_samples_stats.json"));
    EXPECT_EQ(readFile(csv), golden("run_samples.csv"));
}

TEST(Cli, ServeChaosStatsJsonMatchesGolden)
{
    // A small fleet under every resilience mechanism at once: the
    // full victim x perpetrator attribution tree, quarantine, churn
    // and admission events must not move unless a change means to.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_chaos.json";
    ASSERT_EQ(
        runCli("serve --tenants 12 --cores 4 --duration 1 --util 0.7 "
               "--arrivals mixed --slo 25x:1,50x:2 --service-us 400 "
               "--seed 11 --admission 1 "
               "--churn \"join:tenant=RNRS#7:at=0.3,"
               "leave:tenant=RtNt#8:at=0.7,"
               "migrate:tenant=SMask#9:at=0.5:core=3\" "
               "--antagonist "
               "\"hbm-hog:tenant=2:mag=3.5:after=0.2:until=0.6\" "
               "--faults flood:rate=0.5:mag=3:tenant=4:count=4 "
               "--stats-json " +
               json)
            .first,
        0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_chaos_stats.json"));
}

TEST(Cli, ServeTracedRunMatchesGolden)
{
    // A single-epoch serve with sheds, request spans and per-core
    // queue samples: the whole-run completion fold, the SCFQ pick
    // order and the span merge must not move the bytes.
    const std::string dir = ::testing::TempDir();
    ASSERT_EQ(
        runCli("serve --tenants 16 --cores 4 --duration 0.2 "
               "--util 0.95 --arrivals mixed --slo 25x:1,50x:2 "
               "--service-us 400 --seed 6 --queue-cap 4 "
               "--trace-out " + dir + "/cli_golden_spans.jsonl "
               "--trace-sample 8 --timeline " + dir +
               "/cli_golden_timeline.json --queue-sample-ticks 32 "
               "--stats-json " + dir + "/cli_golden_traced.json")
            .first,
        0);
    EXPECT_EQ(stripWallSeconds(readFile(dir + "/cli_golden_traced.json")),
              golden("serve_traced_stats.json"));
    EXPECT_EQ(readFile(dir + "/cli_golden_spans.jsonl"),
              golden("serve_traced_spans.jsonl"));
    EXPECT_EQ(readFile(dir + "/cli_golden_timeline.json"),
              golden("serve_traced_timeline.json"));
}

TEST(Cli, ServeMigrateFloodStatsJsonMatchesGolden)
{
    // BERT#11 moves from core 3 to core 0 while core 3 is still
    // serving it, so both cores complete its requests in the next
    // epoch (and the quarantine ladder moves it again while busy);
    // the every-tenant flood cap (count=5, no tenant=) is spent in
    // tenant-index order. Both orders are part of the bytes.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_migrate_flood.json";
    ASSERT_EQ(runCli("serve --tenants 12 --cores 4 --duration 1 "
                     "--util 0.9 --arrivals mixed --slo 25x:1,50x:2 "
                     "--service-us 400 --seed 4 "
                     "--churn migrate:tenant=BERT#11:at=0.5:core=0 "
                     "--faults flood:rate=0.3:mag=3:count=5 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_migrate_flood_stats.json"));
}

TEST(Cli, ServeAdvisorEvictStatsJsonMatchesGolden)
{
    // Advisor placement (pair speed factors), an hbm-hog that climbs
    // the ladder to eviction, isolated tenants re-paired through the
    // advisor's gains, and a migrate without core= (the emptiest
    // other core): paths the other serve goldens never reach.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_advisor_evict.json";
    ASSERT_EQ(runCli("serve --tenants 12 --cores 4 --duration 1 "
                     "--util 0.8 --arrivals mixed --slo 25x:1,50x:2 "
                     "--models BERT,NCF,RsNt --policy advisor --seed 5 "
                     "--antagonist hbm-hog:tenant=2:mag=4:after=0.1 "
                     "--strikes-throttle 1 --strikes-isolate 2 "
                     "--strikes-evict 3 "
                     "--churn migrate:tenant=NCF#1:at=0.4 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_advisor_evict_stats.json"));
}

TEST(Cli, ServeShapesStatsJsonMatchesGolden)
{
    // Lognormal service draws, non-default diurnal and bursty shapes
    // and a thrash antagonist: the draw and SCFQ paths the other
    // serve goldens, all on exponential service and default shapes,
    // never reach.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_shapes.json";
    ASSERT_EQ(runCli("serve --tenants 12 --cores 4 --duration 1 "
                     "--util 0.8 --arrivals mixed --amplitude 0.8 "
                     "--period 0.25 --on 0.05 --off 0.1 "
                     "--service lognormal --cv 1.5 --service-us 400 "
                     "--seed 9 "
                     "--antagonist thrash:tenant=3:mag=0.5:after=0.2:"
                     "until=0.7 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_shapes_stats.json"));
}

TEST(Cli, ServeDenseChaosStatsJsonMatchesGolden)
{
    // Twelve residents per core under admission, churn, an hbm-hog,
    // a thrash window and a flood: many flows queue at once, so each
    // completion charges head-of-line waits to several co-residents
    // and the blame tables are dense. The other serve goldens put
    // three residents on a core.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_dense_chaos.json";
    ASSERT_EQ(runCli("serve --tenants 24 --cores 2 --duration 1 "
                     "--util 0.85 --arrivals mixed --slo 25x:1,50x:2 "
                     "--service-us 200 --seed 13 --admission 1 "
                     "--churn migrate:tenant=NCF#5:at=0.4:core=0,"
                     "join:tenant=RNRS#18:at=0.3,"
                     "leave:tenant=TFMR#10:at=0.6 "
                     "--antagonist hbm-hog:tenant=3:mag=3:after=0.2:"
                     "until=0.7,thrash:tenant=7:mag=0.4:after=0.1:"
                     "until=0.8 "
                     "--faults flood:rate=0.5:mag=3:tenant=4:count=4 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_dense_chaos_stats.json"));
}

TEST(Cli, ServeFinalSplitStatsJsonMatchesGolden)
{
    // NCF#5 migrates at the last control boundary while its old core
    // is serving it: that request completes on the old core in the
    // final epoch, so the tenant's final-epoch completions fold
    // serially after the drain, not inside a core's worker.
    const std::string json =
        ::testing::TempDir() + "/cli_golden_final_split.json";
    ASSERT_EQ(runCli("serve --tenants 12 --cores 4 --duration 1 "
                     "--util 0.9 --arrivals mixed --slo 25x:1,50x:2 "
                     "--service-us 400 --seed 5 "
                     "--churn migrate:tenant=NCF#5:at=0.984375:core=0 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    EXPECT_EQ(stripWallSeconds(readFile(json)),
              golden("serve_final_split_stats.json"));
}

TEST(Cli, RunStatsJsonHasSchemaAndAgreesWithItself)
{
    const std::string path =
        ::testing::TempDir() + "/cli_stats.json";
    const auto [rc, out] = runCli(
        "run --models MNST,NCF --requests 4 --stats-json " + path +
        " --sample-interval 5000");
    ASSERT_EQ(rc, 0);

    const JsonValue doc = JsonValue::parse(readFile(path)).value();
    for (const char *k : {"manifest", "run", "registry", "samples"})
        EXPECT_TRUE(doc.has(k)) << k;
    EXPECT_EQ(doc.find("manifest")->find("tool")->str, "v10sim run");
    EXPECT_DOUBLE_EQ(doc.find("manifest")->find("requests")->number,
                     4.0);

    // The registry totals must agree with the per-tenant RunStats
    // aggregates in the same document.
    const JsonValue *tenants = doc.find("run")->find("tenants");
    ASSERT_TRUE(tenants != nullptr && tenants->isArray());
    ASSERT_EQ(tenants->array.size(), 2u);
    double sa = 0.0;
    double requests = 0.0;
    for (const JsonValue &t : tenants->array) {
        sa += t.find("sa_compute_cycles")->number;
        requests += t.find("requests")->number;
    }
    const JsonValue *sched = doc.find("registry")->find("sched");
    ASSERT_NE(sched, nullptr);
    EXPECT_DOUBLE_EQ(sched->find("sa_busy_cycles")->number, sa);
    EXPECT_DOUBLE_EQ(sched->find("requests")->number, requests);

    // Sampling was on: at least three probes and one row.
    EXPECT_GE(doc.find("samples")->find("probes")->array.size(), 3u);
    EXPECT_FALSE(doc.find("samples")->find("rows")->array.empty());
}

TEST(Cli, ReportStatsJsonDumpsTheGrid)
{
    const std::string path =
        ::testing::TempDir() + "/cli_report_stats.json";
    const auto [rc, out] = runCli(
        "report --requests 2 --jobs auto --out " +
        ::testing::TempDir() + "/cli_report.md --stats-json " + path);
    ASSERT_EQ(rc, 0);

    const JsonValue doc = JsonValue::parse(readFile(path)).value();
    EXPECT_EQ(doc.find("manifest")->find("tool")->str,
              "v10sim report");
    const JsonValue *grid = doc.find("grid");
    ASSERT_TRUE(grid != nullptr && grid->isObject());
    EXPECT_EQ(grid->object.size(), 11u); // the 11 evaluation pairs
    const JsonValue &cell = grid->object.front().second;
    ASSERT_TRUE(cell.isObject());
    EXPECT_TRUE(cell.has("PMT"));
    EXPECT_TRUE(cell.has("V10-Full"));
    EXPECT_TRUE(
        cell.object.front().second.find("tenants")->isArray());
}

TEST(Cli, ServeReportsFleetSummaryAndTailTable)
{
    const auto [rc, out] = runCli(
        "serve --tenants 8 --cores 4 --duration 0.5 --util 0.6 "
        "--service-us 400 --seed 3");
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("offered"), std::string::npos);
    EXPECT_NE(out.find("goodput"), std::string::npos);
    EXPECT_NE(out.find("p99"), std::string::npos);
}

TEST(Cli, ServeStatsJsonSchemaAndJobsBitIdentity)
{
    const std::string serial =
        ::testing::TempDir() + "/cli_serve_serial.json";
    const std::string parallel =
        ::testing::TempDir() + "/cli_serve_jobs.json";
    const std::string scenario =
        "serve --tenants 30 --cores 8 --duration 1 --util 0.7 "
        "--arrivals mixed --slo 25x:1,50x:2 --service-us 300 "
        "--seed 11 ";
    const auto [rc1, out1] =
        runCli(scenario + "--jobs 1 --stats-json " + serial);
    ASSERT_EQ(rc1, 0);
    const auto [rc2, out2] =
        runCli(scenario + "--jobs auto --stats-json " + parallel);
    ASSERT_EQ(rc2, 0);

    const std::string a = readFile(serial);
    // Byte-identity across --jobs: same document, byte for byte.
    EXPECT_EQ(a, readFile(parallel));

    const JsonValue doc = JsonValue::parse(a).value();
    for (const char *k : {"manifest", "serving", "registry"})
        EXPECT_TRUE(doc.has(k)) << k;
    EXPECT_EQ(doc.find("manifest")->find("tool")->str,
              "v10sim serve");
    const JsonValue *serving = doc.find("serving");
    ASSERT_NE(serving, nullptr);
    const JsonValue *tenants = serving->find("tenants");
    ASSERT_TRUE(tenants != nullptr && tenants->isArray());
    ASSERT_EQ(tenants->array.size(), 30u);
    double offered = 0.0;
    for (const JsonValue &t : tenants->array) {
        for (const char *k :
             {"p50_us", "p99_us", "p999_us", "goodput_rps", "shed",
              "slo_target_us"})
            EXPECT_TRUE(t.has(k)) << k;
        offered += t.find("offered")->number;
    }
    // Tenant rows sum to the fleet aggregate, which the registry
    // mirrors under serve.*.
    EXPECT_DOUBLE_EQ(serving->find("offered")->number, offered);
    EXPECT_DOUBLE_EQ(
        doc.find("registry")->find("serve")->find("offered")->number,
        offered);
}

TEST(Cli, ServeUsageErrors)
{
    EXPECT_EQ(runCli("serve --policy nope").first, 2);
    EXPECT_EQ(runCli("serve --arrivals weekly").first, 2);
    EXPECT_EQ(runCli("serve --slo bogus").first, 2);
    EXPECT_EQ(runCli("serve --tenants 0").first, 2);
    EXPECT_EQ(runCli("serve --service uniform").first, 2);
}

TEST(Cli, ServeNumericFlagsRejectGarbageAndNonPositives)
{
    // Rates and utilizations must be strictly positive and parsed
    // strictly: zero, negatives, and trailing garbage are usage
    // errors, never silent truncation to a nonsense admitted rate.
    EXPECT_EQ(runCli("serve --util 0").first, 2);
    EXPECT_EQ(runCli("serve --util -0.5").first, 2);
    EXPECT_EQ(runCli("serve --util 0.6x").first, 2);
    EXPECT_EQ(runCli("serve --rps 0").first, 2);
    EXPECT_EQ(runCli("serve --rps -3").first, 2);
    EXPECT_EQ(runCli("serve --rps 10abc").first, 2);
    // Resilience knobs go through the same strict parse...
    EXPECT_EQ(runCli("serve --admission 1 --admit-headroom 0").first,
              2);
    EXPECT_EQ(
        runCli("serve --admission 1 --admit-decrease 1.5x").first,
        2);
    EXPECT_EQ(runCli("serve --admission 1 --admit-burst -1").first,
              2);
    EXPECT_EQ(runCli("serve --detect-hi 0").first, 2);
    // ...and structured plan errors exit with the usage code too.
    EXPECT_EQ(runCli("serve --churn join:tenant=x").first, 2);
    EXPECT_EQ(runCli("serve --antagonist gremlin:tenant=0").first,
              2);
    // Positive control: the same flags with sane values run fine.
    EXPECT_EQ(runCli("serve --tenants 2 --cores 2 --duration 0.05 "
                     "--util 0.4 --admission 1")
                  .first,
              0);
}

// An output path that cannot be opened, or a sampling interval of
// 0, is bad input: each exits 2 with a message naming the problem.

/** A path under a directory that does not exist. */
std::string
unwritablePath(const std::string &name)
{
    return ::testing::TempDir() + "/no_such_dir/" + name;
}

/** Run @p args; expect exit 2 and @p needle in the output. */
void
expectUsageError(const std::string &args, const std::string &needle)
{
    const auto [rc, out] = runCli(args, true);
    EXPECT_EQ(rc, 2) << args;
    EXPECT_NE(out.find(needle), std::string::npos) << out;
}

TEST(Cli, ZeroSampleIntervalExitsWithCode2)
{
    expectUsageError("run --models MNST,NCF --requests 2 "
                     "--sample-interval 0",
                     "--sample-interval");
}

TEST(Cli, UnwritableRunStatsJsonExitsWithCode2)
{
    const std::string path = unwritablePath("stats.json");
    expectUsageError("run --models MNST,NCF --requests 2 --stats-json " +
                         path,
                     path);
}

TEST(Cli, UnwritableSamplesCsvExitsWithCode2)
{
    const std::string path = unwritablePath("samples.csv");
    expectUsageError(
        "run --models MNST,NCF --requests 2 --samples-csv " + path,
        path);
}

TEST(Cli, UnwritableRunTimelineExitsWithCode2)
{
    const std::string path = unwritablePath("timeline.json");
    expectUsageError(
        "run --models MNST,NCF --requests 2 --timeline " + path, path);
}

TEST(Cli, RunUnwritableTraceOutExitsWithCode2)
{
    const std::string path = unwritablePath("spans.jsonl");
    expectUsageError(
        "run --models MNST,NCF --requests 2 --trace-out " + path, path);
}

TEST(Cli, UnwritableServeStatsJsonExitsWithCode2)
{
    const std::string path = unwritablePath("serve.json");
    expectUsageError("serve --tenants 2 --cores 2 --duration 0.05 "
                     "--stats-json " +
                         path,
                     path);
}

TEST(Cli, ServeStatsJsonShortWriteExits2)
{
    // /dev/full opens, and then every write to it fails: the document
    // must be checked after it is written, not only at open. The
    // MNST trace (about 700 bytes) stays in the stream's buffer until
    // it is flushed, so only a flush before the check sees its
    // failure.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    const std::string serve = "serve --tenants 2 --cores 2 "
                              "--duration 0.05 --stats-json /dev/full";
    const auto [rc, out] = runCli(serve, true);
    EXPECT_EQ(rc, 2) << out;
    EXPECT_NE(out.find("short write on stats JSON"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("stats JSON written"), std::string::npos) << out;
    expectUsageError("run --models MNST,NCF --requests 2 "
                     "--stats-json /dev/full",
                     "short write on stats JSON");
    expectUsageError("advise --models BERT,NCF --cores 1 "
                     "--stats-json /dev/full",
                     "short write on stats JSON");
    expectUsageError("trace --model MNST --out /dev/full",
                     "short write on trace file");
}

TEST(Cli, UnwritableTraceOutputExitsWithCode2)
{
    const std::string path = unwritablePath("trace.txt");
    expectUsageError("trace --model MNST --out " + path, path);
}

TEST(Cli, UnwritableServeTimelineExitsWithCode2)
{
    const std::string path = unwritablePath("serve_timeline.json");
    expectUsageError("serve --tenants 2 --cores 2 --duration 0.05 "
                     "--timeline " +
                         path,
                     path);
}

TEST(Cli, ServeUnwritableTraceOutExitsWithCode2)
{
    const std::string path = unwritablePath("serve_spans.jsonl");
    expectUsageError("serve --tenants 2 --cores 2 --duration 0.05 "
                     "--trace-out " +
                         path,
                     path);
}

TEST(Cli, UnwritableAdviseStatsJsonExitsWithCode2)
{
    const std::string path = unwritablePath("advise.json");
    expectUsageError("advise --models BERT,NCF --cores 1 --stats-json " +
                         path,
                     path);
}

TEST(Cli, ReportUnwritableOutputsExitWithCode2)
{
    const std::string md = unwritablePath("report.md");
    expectUsageError("report --requests 2 --out " + md, md);
    // The stats JSON is opened before the grid runs: the writable
    // report is created but nothing is written to it.
    const std::string out = ::testing::TempDir() + "/cli_report_first.md";
    const std::string json = unwritablePath("report.json");
    std::remove(out.c_str());
    expectUsageError("report --out " + out + " --stats-json " + json,
                     json);
    EXPECT_EQ(readFile(out), "");
}

TEST(Cli, BadJobsExitsWithCode2)
{
    // --jobs is checked before any simulation runs.
    expectUsageError("report --jobs abc",
                     "--jobs: expected a positive integer or 'auto', "
                     "got 'abc'");
    expectUsageError("figure --id fig23 --quick 1 --jobs 1025",
                     "--jobs: 1025 exceeds the limit of 1024");
    expectUsageError("advise --models BERT,NCF --jobs -3", "--jobs");
    expectUsageError("serve --tenants 2 --jobs 4x", "--jobs");
}

// v10sim figure checks its flags before anything runs: bad input
// exits 2 with a message naming it, never a panic or exit 1.

TEST(Cli, FigureRejectsBadRequests)
{
    for (const char *value : {"abc", "0", "-3", "4x"})
        expectUsageError(std::string("figure --id fig18 --requests ") +
                             value,
                         "--requests expects");
}

TEST(Cli, FigureRejectsUnknownId)
{
    const auto [rc, out] = runCli("figure --id fig99", true);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(out.find("unknown figure id 'fig99'"), std::string::npos)
        << out;
    for (const char *id : {"fig3", "fig16", "fig25", "table1", "table4"})
        EXPECT_NE(out.find(id), std::string::npos) << id;
    expectUsageError("figure --quick 1", "unknown figure id ''");
}

TEST(Cli, FigureUnwritableStatsJsonExitsWithCode2)
{
    // The path is opened before the grid runs: at a million requests
    // per cell, running the grid first would take hours.
    const std::string json = unwritablePath("fig16.json");
    const auto [rc, out] = runCli(
        "figure --id fig16 --requests 1000000 --stats-json " + json,
        true);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(out.find(json), std::string::npos) << out;
    EXPECT_EQ(out.find("=="), std::string::npos) << out;
}

TEST(Cli, FigureStatsJsonOnlyForPairGridFigures)
{
    const std::string json =
        ::testing::TempDir() + "/cli_figure_table3.json";
    expectUsageError("figure --id table3 --stats-json " + json,
                     "fig16-fig21");
}

TEST(Cli, FigureStatsJsonHoldsThePairGrid)
{
    const std::string json = ::testing::TempDir() + "/cli_fig21.json";
    ASSERT_EQ(runCli("figure --id fig21 --requests 2 --csv 1 "
                     "--stats-json " +
                     json)
                  .first,
              0);
    const JsonValue doc = JsonValue::parse(readFile(json)).value();
    const JsonValue *manifest = doc.find("manifest");
    ASSERT_NE(manifest, nullptr);
    EXPECT_EQ(manifest->find("tool")->str, "v10sim figure --id fig21");
    EXPECT_EQ(manifest->find("requests")->number, 2.0);
    ASSERT_EQ(manifest->find("schedulers")->array.size(), 2u);
    const JsonValue *grid = doc.find("grid");
    ASSERT_NE(grid, nullptr);
    ASSERT_EQ(grid->object.size(), 11u);
    for (const auto &[pair, cells] : grid->object) {
        EXPECT_TRUE(cells.has("PMT")) << pair;
        EXPECT_TRUE(cells.has("V10-Full")) << pair;
        EXPECT_TRUE(cells.find("V10-Full")->has("stp")) << pair;
    }
}

/**
 * Every figure id's `--quick 1` text at one job, and its CSV at four
 * jobs, against tests/data/golden/figures/. One test per id, so
 * that `ctest -j` spreads the slow ones (fig23, fig25).
 */
class CliFigureGolden : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CliFigureGolden, QuickOutputMatchesGolden)
{
    const std::string id = GetParam();
    const auto [rc, text] = runCli("figure --id " + id + " --quick 1");
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(text, golden("figures/" + id + ".txt"));
    const auto [rc_csv, csv] =
        runCli("figure --id " + id + " --quick 1 --csv 1 --jobs 4");
    ASSERT_EQ(rc_csv, 0);
    EXPECT_EQ(csv, golden("figures/" + id + ".csv"));
}

INSTANTIATE_TEST_SUITE_P(
    Ids, CliFigureGolden,
    ::testing::Values("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                      "fig9", "fig13", "fig15", "fig16", "fig17",
                      "fig18", "fig19", "fig20", "fig21", "fig22",
                      "fig23", "fig24", "fig25", "table1", "table2",
                      "table3", "table4"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(Cli, UnknownCommandShowsUsage)
{
    const auto [rc, out] = runCli("frobnicate --x 1");
    EXPECT_EQ(rc, 2);
    EXPECT_NE(out.find("v10sim"), std::string::npos);
}

TEST(Cli, NoArgsShowsUsage)
{
    const auto [rc, out] = runCli("");
    EXPECT_EQ(rc, 2);
    EXPECT_NE(out.find("profile"), std::string::npos);
}

TEST(Cli, UsageNamesServeShapeFlags)
{
    // serve accepts these flags (commands()); its usage lines must
    // name them too.
    const auto [rc, out] = runCli("");
    EXPECT_EQ(rc, 2);
    const std::size_t begin = out.find("v10sim serve");
    const std::size_t end = out.find("v10sim trace");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    const std::string serve = out.substr(begin, end - begin);
    for (const char *flag : {"--cv ", "--amplitude ", "--period ",
                             "--on ", "--off ", "--models "})
        EXPECT_NE(serve.find(flag), std::string::npos) << flag;
}

} // namespace
} // namespace v10
