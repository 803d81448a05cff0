/**
 * @file
 * Tests for the v10lint analysis library: the fixture corpus under
 * tests/data/lint (every seeded violation detected, every clean
 * snippet quiet), inline suppression handling, baseline add/expire
 * semantics, and the JSON report schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/baseline.h"
#include "analysis/rule.h"
#include "analysis/sarif.h"
#include "analysis/source_file.h"
#include "common/json.h"

#ifndef V10_TEST_DATA_DIR
#error "V10_TEST_DATA_DIR must be defined by the build"
#endif

namespace v10::analysis {
namespace {

namespace fs = std::filesystem;

/** A parsed tests/data/lint fixture. */
struct Fixture
{
    std::string name;   ///< file stem, e.g. "error-no-fatal__pos1"
    std::string rule;   ///< derived from the stem before "__"
    std::string path;   ///< pretend repo path (fixture-path header)
    std::size_t expect = 0; ///< findings the rule must emit
    std::string text;   ///< fixture source
};

std::string
headerValue(const std::string &text, const std::string &key)
{
    const std::string tag = "// " + key + ": ";
    const std::size_t at = text.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + tag.size();
    const std::size_t end = text.find('\n', start);
    return text.substr(start, end - start);
}

std::vector<Fixture>
loadFixtures()
{
    std::vector<Fixture> fixtures;
    const fs::path dir = fs::path(V10_TEST_DATA_DIR) / "lint";
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".cpp")
            continue;
        std::ifstream is(entry.path());
        std::ostringstream buf;
        buf << is.rdbuf();

        Fixture f;
        f.name = entry.path().stem().string();
        f.rule = f.name.substr(0, f.name.find("__"));
        f.text = buf.str();
        f.path = headerValue(f.text, "fixture-path");
        f.expect = static_cast<std::size_t>(
            std::stoul(headerValue(f.text, "fixture-expect")));
        fixtures.push_back(std::move(f));
    }
    std::sort(fixtures.begin(), fixtures.end(),
              [](const Fixture &a, const Fixture &b) {
                  return a.name < b.name;
              });
    return fixtures;
}

LintReport
lintOne(const std::string &rule, const std::string &path,
        const std::string &text, const Baseline *baseline = nullptr)
{
    LintOptions options;
    options.ruleFilter = {rule};
    std::vector<SourceFile> files;
    files.push_back(SourceFile::fromString(path, text));
    return lintSources(files, options, baseline);
}

TEST(LintFixtures, CorpusCoversEveryRule)
{
    // >= 2 positive and >= 1 negative snippet per rule in the pack.
    std::set<std::string> rules;
    for (const auto &rule : makeDefaultRules())
        rules.insert(rule->name());

    std::set<std::string> pos, neg;
    for (const Fixture &f : loadFixtures()) {
        ASSERT_TRUE(rules.count(f.rule))
            << f.name << " names unknown rule " << f.rule;
        if (f.expect > 0)
            pos.insert(f.rule);
        else
            neg.insert(f.rule);
    }
    EXPECT_EQ(pos, rules);
    EXPECT_EQ(neg, rules);

    for (const std::string &rule : rules) {
        std::size_t positives = 0;
        for (const Fixture &f : loadFixtures())
            positives += f.rule == rule && f.expect > 0;
        EXPECT_GE(positives, 2u) << rule;
    }
}

TEST(LintFixtures, EverySeededViolationDetected)
{
    for (const Fixture &f : loadFixtures()) {
        const LintReport report = lintOne(f.rule, f.path, f.text);
        EXPECT_EQ(report.newCount(), f.expect) << f.name;
        for (const Finding &found : report.findings) {
            EXPECT_EQ(found.rule, f.rule) << f.name;
            EXPECT_EQ(found.file, f.path) << f.name;
            EXPECT_GT(found.line, 0u) << f.name;
            EXPECT_FALSE(found.message.empty()) << f.name;
        }
    }
}

TEST(LintFixtures, PathScopingExemptsOtherTrees)
{
    // The same violation outside a rule's include set is silent:
    // exemptions are structural, not suppression-based.
    for (const Fixture &f : loadFixtures()) {
        if (f.expect == 0)
            continue;
        const LintReport report =
            lintOne(f.rule, "bench/" + f.path, f.text);
        EXPECT_EQ(report.newCount(), 0u) << f.name;
    }
}

TEST(LintSuppression, AllowCoversItsLineAndTheLineBelow)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() {\n"
                             "    // v10lint: allow(error-no-fatal)\n"
                             "    abort();\n"
                             "    abort(); // second one is live\n"
                             "}\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 1u);
    EXPECT_EQ(report.suppressedInline, 1u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].line, 5u);
}

TEST(LintSuppression, TrailingAllowOnTheSameLine)
{
    const std::string text =
        "#include <cstdlib>\n"
        "void f() {\n"
        "    abort(); // v10lint: allow(error-no-fatal)\n"
        "}\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 0u);
    EXPECT_EQ(report.suppressedInline, 1u);
}

TEST(LintSuppression, AllowFileCoversTheWholeFile)
{
    const std::string text =
        "// v10lint: allow-file(error-no-fatal)\n"
        "#include <cstdlib>\n"
        "void f() { abort(); }\n"
        "void g() { abort(); }\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 0u);
    EXPECT_EQ(report.suppressedInline, 2u);
}

TEST(LintSuppression, AllowForOneRuleDoesNotCoverAnother)
{
    const std::string text =
        "#include <cstdlib>\n"
        "void f() {\n"
        "    // v10lint: allow(determinism-random)\n"
        "    abort();\n"
        "}\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 1u);
    EXPECT_EQ(report.suppressedInline, 0u);
}

TEST(LintBaseline, MatchingFindingsAreBaselinedNotNew)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    ASSERT_EQ(fresh.newCount(), 1u);

    const Baseline baseline =
        Baseline::fromFindings(fresh.findings);
    const LintReport rerun =
        lintOne("error-no-fatal", "src/npu/x.cpp", text, &baseline);
    EXPECT_EQ(rerun.newCount(), 0u);
    EXPECT_EQ(rerun.baselinedCount(), 1u);
    EXPECT_TRUE(rerun.stale.empty());
}

TEST(LintBaseline, SurvivesLineMoves)
{
    // The baseline keys on the normalized source line, not its
    // number: prepending unrelated code must not invalidate it.
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    const Baseline baseline =
        Baseline::fromFindings(fresh.findings);

    const std::string moved = "#include <cstdlib>\n"
                              "int unrelated();\n"
                              "int alsoUnrelated();\n"
                              "void f() { abort(); }\n";
    const LintReport rerun =
        lintOne("error-no-fatal", "src/npu/x.cpp", moved, &baseline);
    EXPECT_EQ(rerun.newCount(), 0u);
    EXPECT_EQ(rerun.baselinedCount(), 1u);
}

TEST(LintBaseline, FixedViolationsReportStale)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    const Baseline baseline =
        Baseline::fromFindings(fresh.findings);

    const std::string fixed = "void f() {}\n";
    const LintReport rerun =
        lintOne("error-no-fatal", "src/npu/x.cpp", fixed, &baseline);
    EXPECT_EQ(rerun.newCount(), 0u);
    ASSERT_EQ(rerun.stale.size(), 1u);
    EXPECT_EQ(rerun.stale[0].rule, "error-no-fatal");
    EXPECT_EQ(rerun.stale[0].file, "src/npu/x.cpp");
}

TEST(LintBaseline, CountBudgetsIdenticalFindings)
{
    // Two identical offending lines merge into one entry with
    // count 2; a third identical line is NOT grandfathered.
    const std::string two = "#include <cstdlib>\n"
                            "void f() {\n"
                            "    abort();\n"
                            "    abort();\n"
                            "}\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", two);
    ASSERT_EQ(fresh.newCount(), 2u);
    const Baseline baseline =
        Baseline::fromFindings(fresh.findings);
    ASSERT_EQ(baseline.entries.size(), 1u);
    EXPECT_EQ(baseline.entries[0].count, 2u);

    const std::string three = "#include <cstdlib>\n"
                              "void f() {\n"
                              "    abort();\n"
                              "    abort();\n"
                              "    abort();\n"
                              "}\n";
    const LintReport rerun =
        lintOne("error-no-fatal", "src/npu/x.cpp", three, &baseline);
    EXPECT_EQ(rerun.newCount(), 1u);
    EXPECT_EQ(rerun.baselinedCount(), 2u);
}

TEST(LintBaseline, RegenerationPreservesPriorNotes)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    Baseline prior = Baseline::fromFindings(fresh.findings);
    ASSERT_EQ(prior.entries.size(), 1u);
    prior.entries[0].note = "legacy abort; removal tracked";

    const Baseline regen =
        Baseline::fromFindings(fresh.findings, &prior);
    ASSERT_EQ(regen.entries.size(), 1u);
    EXPECT_EQ(regen.entries[0].note,
              "legacy abort; removal tracked");
}

TEST(LintBaseline, JsonRoundTrip)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport fresh =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    Baseline baseline = Baseline::fromFindings(fresh.findings);
    baseline.entries[0].note = "kept on purpose";

    const fs::path tmp =
        fs::temp_directory_path() / "v10lint_baseline_test.json";
    ASSERT_TRUE(baseline.save(tmp.string()).isOk());
    auto loaded_or = Baseline::load(tmp.string());
    fs::remove(tmp);
    ASSERT_TRUE(loaded_or.ok());
    const Baseline &loaded = loaded_or.value();
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.entries[0].rule, baseline.entries[0].rule);
    EXPECT_EQ(loaded.entries[0].file, baseline.entries[0].file);
    EXPECT_EQ(loaded.entries[0].hash, baseline.entries[0].hash);
    EXPECT_EQ(loaded.entries[0].count, baseline.entries[0].count);
    EXPECT_EQ(loaded.entries[0].note, "kept on purpose");
}

TEST(LintReportFormat, JsonSchema)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);

    std::ostringstream os;
    writeJsonReport(report, os);

    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const JsonValue &doc = parsed.value();
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("tool"));
    ASSERT_TRUE(doc.has("counts"));
    ASSERT_TRUE(doc.has("by_rule"));
    ASSERT_TRUE(doc.has("findings"));

    const JsonValue *counts = doc.find("counts");
    ASSERT_TRUE(counts->isObject());
    EXPECT_EQ(counts->find("new")->number, 1.0);

    const JsonValue *findings = doc.find("findings");
    ASSERT_TRUE(findings->isArray());
    ASSERT_EQ(findings->array.size(), 1u);
    const JsonValue &f = findings->array[0];
    EXPECT_TRUE(f.has("rule"));
    EXPECT_TRUE(f.has("file"));
    EXPECT_TRUE(f.has("line"));
    EXPECT_TRUE(f.has("message"));
    EXPECT_TRUE(f.has("status"));
    EXPECT_TRUE(f.has("hash"));
}

TEST(LintReportFormat, TextDiagnosticsMatchRepoStyle)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);

    std::ostringstream os;
    writeTextReport(report, os);
    // "source:line: [rule] message" — the PR 3 diagnostic shape.
    EXPECT_NE(os.str().find("src/npu/x.cpp:2: [error-no-fatal]"),
              std::string::npos);
}

TEST(LintLexer, StringsAndCommentsAreOpaque)
{
    const std::string text =
        "// abort() in a comment\n"
        "/* abort() in a block comment */\n"
        "const char *s = \"abort()\";\n"
        "const char *r = R\"(abort())\";\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 0u);
}

TEST(LintRules, CatalogIsStable)
{
    std::vector<std::string> names;
    for (const auto &rule : makeDefaultRules())
        names.push_back(rule->name());
    const std::vector<std::string> expected = {
        "determinism-random",      "determinism-time",
        "determinism-unordered",   "determinism-pointer-key",
        "error-no-fatal",          "error-discarded-result",
        "concurrency-mutable-static",
        "semantic-shared-state",   "semantic-lock-discipline",
        "semantic-fp-order",       "semantic-cycle-overflow",
    };
    EXPECT_EQ(names, expected);
}

TEST(LintLexer, RawStringCustomDelimiterIsOpaque)
{
    const std::string text =
        "const char *s = R\"v10(rand(); srand(1);)v10\";\n";
    const LintReport report =
        lintOne("determinism-random", "src/npu/x.cpp", text);
    EXPECT_EQ(report.newCount(), 0u);
}

TEST(LintLexer, MalformedRawOpenerFallsBackToCookedString)
{
    // A >16-char delimiter is not a raw-string opener; the quote
    // lexes as a cooked string ending at the next quote, so code
    // after it stays visible to the rules.
    const std::string text =
        "const char *s = R\"0123456789abcdefgh()\";\n"
        "int noise() { return rand(); }\n";
    const LintReport report =
        lintOne("determinism-random", "src/npu/x.cpp", text);
    ASSERT_EQ(report.newCount(), 1u);
    EXPECT_EQ(report.findings[0].line, 2u);
}

TEST(LintSemantic, GuardedByNamesTheMutexItExpects)
{
    // V10_GUARDED_BY(mu_) is satisfied only by holding that mutex;
    // holding a different one still violates the discipline.
    const std::string text =
        "class Box\n"
        "{\n"
        "  public:\n"
        "    void\n"
        "    put(int v)\n"
        "    {\n"
        "        std::lock_guard<std::mutex> lock(other_);\n"
        "        v_ = v;\n"
        "    }\n"
        "\n"
        "  private:\n"
        "    std::mutex mu_;\n"
        "    std::mutex other_;\n"
        "    int v_ V10_GUARDED_BY(mu_) = 0;\n"
        "};\n";
    const LintReport report =
        lintOne("semantic-lock-discipline", "src/common/box.h", text);
    ASSERT_EQ(report.newCount(), 1u);
    EXPECT_NE(report.findings[0].message.find("mu_"),
              std::string::npos);
}

TEST(LintSarif, ReportShapeIsValid)
{
    const std::string text = "#include <cstdlib>\n"
                             "void f() { abort(); }\n";
    const LintReport report =
        lintOne("error-no-fatal", "src/npu/x.cpp", text);

    std::ostringstream os;
    writeSarifReport(report, os);

    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc.find("version")->str, "2.1.0");
    EXPECT_NE(doc.find("$schema")->str.find("sarif-schema-2.1.0"),
              std::string::npos);

    const JsonValue *runs = doc.find("runs");
    ASSERT_TRUE(runs != nullptr && runs->isArray());
    ASSERT_EQ(runs->array.size(), 1u);
    const JsonValue &run = runs->array[0];
    const JsonValue *driver = run.find("tool")->find("driver");
    EXPECT_EQ(driver->find("name")->str, "v10lint");
    ASSERT_TRUE(driver->find("rules")->isArray());
    EXPECT_FALSE(driver->find("rules")->array.empty());

    const JsonValue *results = run.find("results");
    ASSERT_TRUE(results != nullptr && results->isArray());
    ASSERT_EQ(results->array.size(), 1u);
    const JsonValue &r = results->array[0];
    EXPECT_EQ(r.find("ruleId")->str, "error-no-fatal");
    EXPECT_EQ(r.find("level")->str, "warning");
    EXPECT_FALSE(r.find("message")->find("text")->str.empty());
    const JsonValue &loc =
        r.find("locations")->array[0];
    const JsonValue *phys = loc.find("physicalLocation");
    EXPECT_EQ(phys->find("artifactLocation")->find("uri")->str,
              "src/npu/x.cpp");
    EXPECT_EQ(phys->find("region")->find("startLine")->number, 2.0);
    ASSERT_TRUE(r.has("partialFingerprints"));
    EXPECT_TRUE(r.find("partialFingerprints")
                    ->has("v10lintFindingHash/v1"));
}

TEST(LintRunner, WholeRepoIsClean)
{
    // The acceptance bar: the committed tree lints clean against
    // the committed baseline. Locate the repo root relative to the
    // test data dir (tests/data -> repo root is two levels up).
    const fs::path root =
        fs::path(V10_TEST_DATA_DIR).parent_path().parent_path();
    if (!fs::is_directory(root / "src" / "analysis"))
        GTEST_SKIP() << "source tree not available";

    LintOptions options;
    options.root = root.string();
    const fs::path baseline = root / ".v10lint-baseline.json";
    if (fs::is_regular_file(baseline))
        options.baselinePath = baseline.string();

    auto report_or = runLint(options);
    ASSERT_TRUE(report_or.ok())
        << report_or.error().toString();
    const LintReport &report = report_or.value();
    EXPECT_EQ(report.newCount(), 0u) << [&] {
        std::ostringstream os;
        writeTextReport(report, os);
        return os.str();
    }();
    EXPECT_TRUE(report.stale.empty());
}

} // namespace
} // namespace v10::analysis
