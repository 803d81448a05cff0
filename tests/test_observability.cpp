/**
 * @file
 * Observability-layer tests: StatRegistry semantics (paths, kinds,
 * freeze), IntervalSampler probe modes, JSON writer/parser round
 * trips, and the end-to-end guarantees of PR 2 — the frozen registry
 * agrees with RunStats, sampling does not perturb scheduling, the
 * Chrome trace is structurally valid with counter tracks, and the
 * run-report JSON has its documented schema.
 */

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "metrics/interval_sampler.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "metrics/timeline.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "v10/experiment.h"

namespace {

/// Every operator new of this test binary, so that a test can check
/// that a call allocates nothing.
std::atomic<std::size_t> gAllocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// Out of line, so that GCC does not see free() meet operator new.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace v10 {
namespace {

// --- StatRegistry. ---

TEST(StatRegistry, CounterGaugeDistributionBasics)
{
    StatRegistry reg;
    auto &c = reg.addCounter("core.sa0.busy_cycles", "busy");
    ++c;
    c += 9;
    auto &g = reg.addGauge("hbm.peak_bytes_per_cycle");
    g.set(614.4);
    auto &d = reg.addDistribution("sched.slice_len");
    d.record(10.0);
    d.record(30.0);

    EXPECT_TRUE(reg.has("core.sa0.busy_cycles"));
    EXPECT_FALSE(reg.has("core.sa0"));
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_DOUBLE_EQ(reg.value("core.sa0.busy_cycles"), 10.0);
    EXPECT_DOUBLE_EQ(reg.value("hbm.peak_bytes_per_cycle"), 614.4);
    // Distributions answer value() with their mean.
    EXPECT_DOUBLE_EQ(reg.value("sched.slice_len"), 20.0);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_EQ(reg.description("core.sa0.busy_cycles"), "busy");

    const auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

TEST(StatRegistry, FormulaReadsLiveUntilFrozen)
{
    StatRegistry reg;
    double live = 1.0;
    reg.addFormula("derived.x", [&live] { return live * 2.0; });
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 2.0);
    live = 21.0;
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 42.0);

    reg.freeze();
    EXPECT_TRUE(reg.frozen());
    live = -1000.0; // must not matter anymore
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 42.0);
    reg.freeze(); // idempotent
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 42.0);
}

TEST(StatRegistry, SnapshotExpandsDistributions)
{
    StatRegistry reg;
    reg.addCounter("a.count_stat").set(7);
    auto &d = reg.addDistribution("a.dist");
    d.record(2.0);
    d.record(4.0);

    const auto snap = reg.snapshot();
    std::map<std::string, double> flat(snap.begin(), snap.end());
    EXPECT_DOUBLE_EQ(flat.at("a.count_stat"), 7.0);
    EXPECT_DOUBLE_EQ(flat.at("a.dist.count"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("a.dist.sum"), 6.0);
    EXPECT_DOUBLE_EQ(flat.at("a.dist.min"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("a.dist.max"), 4.0);
    EXPECT_DOUBLE_EQ(flat.at("a.dist.mean"), 3.0);
}

TEST(StatRegistry, TextReportListsEveryPath)
{
    StatRegistry reg;
    reg.addCounter("sched.preemptions").set(12);
    reg.addGauge("core.util").set(0.5);
    const std::string report = reg.textReport();
    EXPECT_NE(report.find("sched.preemptions"), std::string::npos);
    EXPECT_NE(report.find("12"), std::string::npos);
    EXPECT_NE(report.find("core.util"), std::string::npos);
}

TEST(StatRegistry, WriteJsonNestsDottedPaths)
{
    StatRegistry reg;
    reg.addCounter("core.sa0.busy_cycles").set(100);
    reg.addCounter("core.sa0.ops").set(4);
    reg.addCounter("sched.preemptions").set(2);

    std::ostringstream os;
    JsonWriter w(os);
    reg.writeJson(w);

    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const JsonValue &doc = parsed.value();
    const JsonValue *sa0 = doc.find("core")->find("sa0");
    ASSERT_NE(sa0, nullptr);
    EXPECT_DOUBLE_EQ(sa0->find("busy_cycles")->number, 100.0);
    EXPECT_DOUBLE_EQ(sa0->find("ops")->number, 4.0);
    EXPECT_DOUBLE_EQ(doc.find("sched")->find("preemptions")->number,
                     2.0);
}

TEST(StatRegistry, WriteJsonOrdersDotBeforeDigitsUnderscoreLetters)
{
    // '.' sorts below every other path character, so a subtree is
    // one contiguous run and closes before its string-prefix
    // siblings ("b0", "b_c", "bc") open.
    StatRegistry reg;
    reg.addCounter("a.bc.y").set(4);
    reg.addCounter("a.b_c").set(3);
    reg.addCounter("a.b0").set(2);
    reg.addCounter("a.b.x").set(1);

    std::ostringstream os;
    JsonWriter w(os);
    reg.writeJson(w);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"a\": {\n"
                        "    \"b\": {\n"
                        "      \"x\": 1\n"
                        "    },\n"
                        "    \"b0\": 2,\n"
                        "    \"b_c\": 3,\n"
                        "    \"bc\": {\n"
                        "      \"y\": 4\n"
                        "    }\n"
                        "  }\n"
                        "}");
}

TEST(StatRegistry, WriteJsonExpandsDistributionsInFixedOrder)
{
    StatRegistry reg;
    auto &d = reg.addDistribution("lat");
    d.record(3.0);
    d.record(0.5);
    reg.addGauge("lat0").set(0.25);
    reg.addFormula("f", [] { return 1.5; });

    std::ostringstream os;
    JsonWriter w(os, 0);
    reg.writeJson(w);
    EXPECT_EQ(os.str(), "{\"f\":1.5,\"lat\":{\"count\":2,\"sum\":3.5,"
                        "\"min\":0.5,\"max\":3,\"mean\":1.75},"
                        "\"lat0\":0.25}");
}

TEST(StatRegistryDeathTest, ConflictsAreFoundPastStringPrefixSiblings)
{
    StatRegistry reg;
    reg.addCounter("a.b");
    reg.addCounter("a.b0");
    reg.addCounter("a.b_c");
    reg.addCounter("a.bc.y");
    reg.addCounter("a.bc0");
    EXPECT_DEATH(reg.addCounter("a.b.z"), "extends existing leaf");
    EXPECT_DEATH(reg.addCounter("a.bc"), "conflicts with existing");
    EXPECT_DEATH(reg.addCounter("a.b_c"), "duplicate");
    EXPECT_DEATH(reg.addCounter("a.bc.y"), "duplicate");
    reg.freeze();
    EXPECT_DEATH(reg.addCounter("z"), "frozen");
}

TEST(StatRegistryDeathTest, RejectsDuplicateAndConflictingPaths)
{
    StatRegistry reg;
    reg.addCounter("a.b");
    EXPECT_DEATH(reg.addCounter("a.b"), "duplicate");
    // A leaf and a subtree cannot share a name: JSON nesting needs
    // "a.b" to be a value or an object, not both.
    EXPECT_DEATH(reg.addCounter("a.b.c"), "extends existing leaf");
    EXPECT_DEATH(reg.addCounter("a"), "conflicts with existing");
    // But a sibling sharing a *string* prefix (not a dot boundary)
    // is fine.
    reg.addCounter("a.bc");

    EXPECT_DEATH(reg.addCounter(""), "");
    EXPECT_DEATH(reg.addCounter("x..y"), "");
    EXPECT_DEATH(reg.addCounter(".x"), "");
    EXPECT_DEATH(reg.addCounter("x."), "");
    EXPECT_DEATH(reg.addCounter("bad path"), "");
    EXPECT_DEATH(reg.value("no.such.stat"), "");
}

// --- StatRegistry tables. ---

/** A random matrix registered twice: per-cell formulas and tables. */
struct TableFixture
{
    std::vector<std::string> victims;
    std::vector<std::size_t> skip; ///< per victim; kNoRow for none
    std::shared_ptr<StatRegistry::TableAxes> axes =
        std::make_shared<StatRegistry::TableAxes>();
    std::vector<double> cells; ///< victim x row x column

    double &
    at(std::size_t v, std::size_t r, std::size_t c)
    {
        const std::size_t rows = axes->rows.size();
        const std::size_t cols = axes->columns.size();
        return cells[(v * rows + r) * cols + c];
    }

    std::string
    tablePath(std::size_t v) const
    {
        return "t." + victims[v] + ".from";
    }

    /** Register the stats both layouts share around the tables. */
    void
    addNeighbours(StatRegistry &reg, std::size_t v) const
    {
        const std::string base = "t." + victims[v] + ".";
        // "fro" sorts before "from", "from0" and "from_a" after
        // every "from.*" leaf.
        reg.addGauge(base + "fro", "short").set(1.0);
        reg.addCounter(base + "from0").set(v);
        reg.addDistribution(base + "from_a").record(0.5 + v);
        reg.addFormula(base + "total", [v] { return 2.0 * v; });
    }

    void
    registerAsFormulas(StatRegistry &reg)
    {
        for (std::size_t v = 0; v < victims.size(); ++v) {
            addNeighbours(reg, v);
            for (std::size_t r = 0; r < axes->rows.size(); ++r) {
                if (r == skip[v])
                    continue;
                for (std::size_t c = 0; c < axes->columns.size(); ++c)
                    reg.addFormula(tablePath(v) + "." + axes->rows[r] +
                                       "." + axes->columns[c],
                                   [this, v, r, c] { return at(v, r, c); },
                                   axes->descriptions[c]);
            }
        }
    }

    void
    registerAsTables(StatRegistry &reg)
    {
        for (std::size_t v = 0; v < victims.size(); ++v) {
            addNeighbours(reg, v);
            reg.addTable(
                tablePath(v), axes,
                [this, v](std::size_t r, double *out) {
                    for (std::size_t c = 0; c < axes->columns.size(); ++c)
                        out[c] = at(v, r, c);
                },
                skip[v]);
        }
    }

    /** Paths that are not leaves but lie next to or inside tables. */
    std::vector<std::string>
    nearMisses() const
    {
        std::vector<std::string> out;
        for (std::size_t v = 0; v < victims.size(); ++v) {
            const std::string p = tablePath(v);
            const std::string &row = axes->rows.front();
            const std::string &col = axes->columns.front();
            for (const std::string &miss :
                 {p, p + ".", p + "." + row, p + "." + row + ".",
                  p + "." + row + "." + col + ".x",
                  p + "." + row + "." + col + "0",
                  p + "." + row + "0." + col, p + ".~." + col,
                  p + "." + col, p + "x." + row + "." + col,
                  "t." + victims[v] + "." + row + "." + col})
                out.push_back(miss);
            if (skip[v] != StatRegistry::kNoRow)
                out.push_back(p + "." + axes->rows[skip[v]] + "." + col);
        }
        out.push_back("t");
        out.push_back("u.v");
        return out;
    }
};

/** Random path segment over a small alphabet, so that names often
 * share prefixes ("A", "A_1", "A0"). */
std::string
randomSegment(Rng &rng)
{
    static const char kAlphabet[] = "A0_1aZ";
    std::string out;
    const std::size_t len = 1 + rng.uniformInt(3);
    for (std::size_t i = 0; i < len; ++i)
        out += kAlphabet[rng.uniformInt(sizeof(kAlphabet) - 1)];
    return out;
}

/** Sorted, unique random segments. */
std::vector<std::string>
randomAxis(Rng &rng, std::size_t n)
{
    std::set<std::string> names;
    while (names.size() < n)
        names.insert(randomSegment(rng));
    return {names.begin(), names.end()};
}

TableFixture
randomTables(std::uint64_t seed)
{
    Rng rng(seed);
    TableFixture f;
    f.victims = randomAxis(rng, 2 + rng.uniformInt(4));
    f.axes->rows = randomAxis(rng, 2 + rng.uniformInt(8));
    f.axes->columns = randomAxis(rng, 1 + rng.uniformInt(3));
    for (const std::string &c : f.axes->columns)
        f.axes->descriptions.push_back("about " + c);
    for (std::size_t v = 0; v < f.victims.size(); ++v)
        f.skip.push_back(rng.bernoulli(0.5)
                             ? StatRegistry::kNoRow
                             : rng.uniformInt(f.axes->rows.size()));
    f.cells.resize(f.victims.size() * f.axes->rows.size() *
                   f.axes->columns.size());
    for (double &cell : f.cells) {
        // Mostly zeros, as in a real blame matrix, some integers and
        // some values that need all 17 digits.
        const double u = rng.uniform();
        cell = u < 0.6 ? 0.0 : u < 0.8 ? std::floor(1e4 * u) : u / 3.0;
    }
    return f;
}

std::string
jsonOf(const StatRegistry &reg, int indent)
{
    std::ostringstream os;
    {
        JsonWriter w(os, indent);
        reg.writeJson(w);
    }
    return os.str();
}

/** Every query must see the tables' leaves as the formulas'. */
void
expectSameRegistry(const StatRegistry &formulas,
                   const StatRegistry &tables,
                   const std::vector<std::string> &misses)
{
    EXPECT_EQ(tables.size(), formulas.size());
    const std::vector<std::string> paths = formulas.paths();
    EXPECT_EQ(tables.paths(), paths);
    EXPECT_EQ(tables.snapshot(), formulas.snapshot());
    EXPECT_EQ(tables.textReport(), formulas.textReport());
    for (const std::string &path : paths) {
        ASSERT_TRUE(tables.has(path)) << path;
        EXPECT_EQ(tables.value(path), formulas.value(path)) << path;
        EXPECT_EQ(tables.description(path), formulas.description(path))
            << path;
    }
    // Random names can make a "miss" a real leaf; either way the two
    // registries must agree.
    for (const std::string &miss : misses)
        EXPECT_EQ(tables.has(miss), formulas.has(miss)) << miss;
    EXPECT_EQ(jsonOf(tables, 2), jsonOf(formulas, 2));
    EXPECT_EQ(jsonOf(tables, 0), jsonOf(formulas, 0));
}

TEST(StatRegistryTable, LeavesMatchPerCellFormulasBeforeAndAfterFreeze)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        TableFixture f = randomTables(seed);
        StatRegistry formulas;
        StatRegistry tables;
        f.registerAsFormulas(formulas);
        f.registerAsTables(tables);
        const std::vector<std::string> misses = f.nearMisses();
        expectSameRegistry(formulas, tables, misses);

        // Both read live state until they freeze, and not after.
        for (double &cell : f.cells)
            cell += 1.25;
        expectSameRegistry(formulas, tables, misses);
        formulas.freeze();
        tables.freeze();
        for (double &cell : f.cells)
            cell = -7.0;
        expectSameRegistry(formulas, tables, misses);
    }
}

TEST(StatRegistryTable, JsonNestsRowsAtTheTablePlace)
{
    StatRegistry reg;
    auto axes = std::make_shared<StatRegistry::TableAxes>();
    axes->rows = {"a", "a_1", "b"};
    axes->columns = {"x", "y"};
    axes->descriptions = {"", ""};
    reg.addCounter("m.from0").set(9);
    reg.addTable(
        "m.from", axes,
        [](std::size_t r, double *out) {
            out[0] = 10.0 * r;
            out[1] = 10.0 * r + 1;
        },
        1);
    EXPECT_EQ(reg.size(), 5u);
    EXPECT_EQ(jsonOf(reg, 0),
              "{\"m\":{\"from\":{\"a\":{\"x\":0,\"y\":1},"
              "\"b\":{\"x\":20,\"y\":21}},\"from0\":9}}");
}

TEST(StatRegistryTable, ValueAndFreezeReadWholeRowsWithoutPerCellAllocations)
{
    auto axes = std::make_shared<StatRegistry::TableAxes>();
    for (char r = 'a'; r <= 'z'; ++r)
        axes->rows.emplace_back(1, r);
    axes->columns = {"x", "y", "z"};
    axes->descriptions = {"", "", ""};
    std::size_t calls = 0;
    StatRegistry reg;
    reg.addTable(
        "t", axes,
        [&calls](std::size_t row, double *out) {
            ++calls;
            out[0] = static_cast<double>(row);
            out[1] = -0.0;
            out[2] = 0.5 * static_cast<double>(row);
        },
        7);
    const std::string leaf = "t.m.z"; // axes row 12
    const std::string negZero = "t.a.y";

    calls = 0;
    std::size_t before = gAllocations.load();
    const double live = reg.value(leaf);
    EXPECT_EQ(gAllocations.load() - before, 0u);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(live, 6.0);

    // One reader call per visible row, and one block for the table.
    calls = 0;
    before = gAllocations.load();
    reg.freeze();
    EXPECT_EQ(gAllocations.load() - before, 1u);
    EXPECT_EQ(calls, axes->rows.size() - 1);

    calls = 0;
    before = gAllocations.load();
    EXPECT_EQ(reg.value(leaf), 6.0);
    EXPECT_TRUE(std::signbit(reg.value(negZero)));
    EXPECT_EQ(gAllocations.load() - before, 0u);
    EXPECT_EQ(calls, 0u);
    const std::string head = "{\"t\":{\"a\":{\"x\":0,\"y\":-0,\"z\":0},";
    EXPECT_EQ(jsonOf(reg, 0).substr(0, head.size()), head);
}

TEST(StatRegistryTableDeathTest, RejectsBadAxesAndLeavesUnderTables)
{
    const auto axesOf = [](std::vector<std::string> rows) {
        auto axes = std::make_shared<StatRegistry::TableAxes>();
        axes->rows = std::move(rows);
        axes->columns = {"c"};
        axes->descriptions = {"d"};
        return axes;
    };
    const auto zero = [](std::size_t, double *out) { out[0] = 0.0; };
    StatRegistry reg;
    EXPECT_DEATH(reg.addTable("p", axesOf({"b", "a"}), zero),
                 "out of order");
    EXPECT_DEATH(reg.addTable("p", axesOf({"a", "a"}), zero),
                 "out of order");
    EXPECT_DEATH(reg.addTable("p", axesOf({"a", "b.c"}), zero),
                 "not a path segment");
    EXPECT_DEATH(reg.addTable("p", axesOf({""}), zero),
                 "not a path segment");
    EXPECT_DEATH(reg.addTable("p", axesOf({"a"}), zero, 0),
                 "no leaves");
    auto wide = axesOf({"a"});
    wide->columns = {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"};
    wide->descriptions.resize(wide->columns.size());
    EXPECT_DEATH(reg.addTable("p", wide, zero), "more than 8");
    reg.addTable("p", axesOf({"a", "b"}), zero);
    EXPECT_DEATH(reg.addCounter("p.a.c"), "extends existing leaf");
    EXPECT_DEATH(reg.addCounter("p.z"), "extends existing leaf");
    EXPECT_DEATH(reg.addCounter("p"), "duplicate");
    reg.addCounter("q.r");
    EXPECT_DEATH(reg.addTable("q", axesOf({"a"}), zero),
                 "conflicts with existing");
    EXPECT_DEATH(reg.value("p.a"), "unknown stat path");
}

// --- IntervalSampler. ---

/** One decoded sampler row. */
struct SampleRow
{
    Cycles cycle;
    std::vector<double> values;
};

/** Every row of @p sampler, read through its cursor. */
std::vector<SampleRow>
decodeRows(const IntervalSampler &sampler)
{
    std::vector<SampleRow> out;
    for (auto row = sampler.rows(); row.next();)
        out.push_back(SampleRow{
            row.cycle(),
            std::vector<double>(row.values(),
                                row.values() + sampler.probeCount())});
    return out;
}

TEST(IntervalSampler, LevelRateDeltaSemantics)
{
    Simulator sim;
    // A counter that gains 10 every 100 cycles, bumped just before
    // each sampling boundary.
    double accum = 0.0;
    for (Cycles t = 50; t <= 450; t += 100)
        sim.at(t, [&accum] { accum += 10.0; });

    IntervalSampler sampler(100);
    sampler.addProbe("level", IntervalSampler::Mode::Level,
                     [&accum] { return accum; });
    sampler.addProbe("rate", IntervalSampler::Mode::Rate,
                     [&accum] { return accum; });
    sampler.addProbe("delta", IntervalSampler::Mode::Delta,
                     [&accum] { return accum; });
    sampler.start(sim);
    sim.runUntil(450);
    sampler.stop();

    ASSERT_EQ(sampler.probeCount(), 3u);
    ASSERT_GE(sampler.rowCount(), 4u);
    EXPECT_EQ(sampler.probeNames(),
              (std::vector<std::string>{"level", "rate", "delta"}));
    const std::vector<SampleRow> rows = decodeRows(sampler);
    ASSERT_EQ(rows.size(), sampler.rowCount());
    // Row 0 at cycle 100: accum has seen one +10 (at cycle 50).
    EXPECT_EQ(rows[0].cycle, 100u);
    EXPECT_DOUBLE_EQ(rows[0].values[0], 10.0); // level: raw
    EXPECT_DOUBLE_EQ(rows[0].values[1], 0.1);  // rate: 10/100
    EXPECT_DOUBLE_EQ(rows[0].values[2], 10.0); // delta
    // Row 1 at cycle 200: one more +10.
    EXPECT_EQ(rows[1].cycle, 200u);
    EXPECT_DOUBLE_EQ(rows[1].values[0], 20.0);
    EXPECT_DOUBLE_EQ(rows[1].values[1], 0.1);
    EXPECT_DOUBLE_EQ(rows[1].values[2], 10.0);
}

TEST(IntervalSampler, StopRecordsFinalPartialInterval)
{
    Simulator sim;
    IntervalSampler sampler(100);
    double v = 0.0;
    sampler.addProbe("x", IntervalSampler::Mode::Level,
                     [&v] { return v; });
    sampler.start(sim);
    // The tick self-reschedules forever; the runner bounds it.
    sim.runUntil(249);
    v = 5.0;
    sampler.stop();

    // Ticks at 100 and 200, plus the final partial row at 249.
    const std::vector<SampleRow> rows = decodeRows(sampler);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].cycle, 100u);
    EXPECT_EQ(rows[1].cycle, 200u);
    EXPECT_EQ(rows[2].cycle, 249u);
    EXPECT_DOUBLE_EQ(rows[2].values[0], 5.0);
}

TEST(IntervalSampler, CsvHasHeaderAndOneLinePerRow)
{
    Simulator sim;
    IntervalSampler sampler(100);
    sampler.addProbe("a", IntervalSampler::Mode::Level,
                     [] { return 1.5; });
    sampler.addProbe("b", IntervalSampler::Mode::Level,
                     [] { return 2.0; });
    sampler.start(sim);
    sim.runUntil(250);
    sampler.stop();

    std::ostringstream os;
    sampler.writeCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "cycle,a,b");
    std::size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, sampler.rowCount());
}

TEST(IntervalSamplerDeathTest, RejectsMisuse)
{
    EXPECT_DEATH(IntervalSampler(0), "");
    Simulator sim;
    IntervalSampler sampler(100);
    sampler.start(sim);
    EXPECT_DEATH(sampler.addProbe("late",
                                  IntervalSampler::Mode::Level,
                                  [] { return 0.0; }),
                 "");
}

// --- JSON writer/parser round trip. ---

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("name", "v10 \"sim\"\n");
    w.kv("count", std::uint64_t{18446744073709551615ull});
    w.kv("ratio", 1.64);
    w.kv("ok", true);
    w.key("xs");
    w.beginArray();
    w.value(1);
    w.valueNull();
    w.value(-2.5);
    w.endArray();
    w.endObject();
    ASSERT_EQ(w.depth(), 0u);

    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const JsonValue &doc = parsed.value();
    EXPECT_EQ(doc.find("name")->str, "v10 \"sim\"\n");
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 1.64);
    EXPECT_TRUE(doc.find("ok")->boolean);
    ASSERT_EQ(doc.find("xs")->array.size(), 3u);
    EXPECT_EQ(doc.find("xs")->array[1].type, JsonValue::Type::Null);
    EXPECT_DOUBLE_EQ(doc.find("xs")->array[2].number, -2.5);
}

TEST(Json, KeysEscapeQuotesBackslashesAndControlCharacters)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.kv(std::string("q\"b\\s\n\x01") + std::string(1, '\0'), 1);
    w.kv("plain_key", 2);
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"q\\\"b\\\\s\\n\\u0001\\u0000\":1,\"plain_key\":2}");
    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    EXPECT_EQ(parsed.value().object[0].first,
              std::string("q\"b\\s\n\x01") + std::string(1, '\0'));
}

/** Write a parsed document back out through @p w. */
void
writeValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.type) {
    case JsonValue::Type::Null: w.valueNull(); break;
    case JsonValue::Type::Bool: w.value(v.boolean); break;
    case JsonValue::Type::Number: w.value(v.number); break;
    case JsonValue::Type::String: w.value(v.str); break;
    case JsonValue::Type::Array:
        w.beginArray();
        for (const JsonValue &item : v.array)
            writeValue(w, item);
        w.endArray();
        break;
    case JsonValue::Type::Object:
        w.beginObject();
        for (const auto &[key, item] : v.object) {
            w.key(key);
            writeValue(w, item);
        }
        w.endObject();
        break;
    }
}

TEST(Json, DocumentsPastTheBufferSurviveARoundTrip)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("rows");
    w.beginArray();
    bool wroteMidDocument = false;
    for (int i = 0; i < 2000; ++i) {
        w.beginObject();
        w.kv("i", i);
        w.kv("x", i / 7.0);
        w.kv("name", "row \"" + std::to_string(i) + "\"");
        w.endObject();
        // The buffer is bounded: a long document reaches the stream
        // before it closes.
        wroteMidDocument |= os.str().size() >= 8192;
    }
    w.endArray();
    w.kv("ok", true);
    w.endObject();
    const std::string text = os.str();
    ASSERT_GT(text.size(), 8u * 8192u);
    EXPECT_TRUE(wroteMidDocument);

    const Result<JsonValue> parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed) << parsed.error().toString();
    std::ostringstream again;
    JsonWriter w2(again);
    writeValue(w2, parsed.value());
    EXPECT_EQ(again.str(), text);
}

TEST(Json, RawBytesAfterTheTopLevelValueLandAfterIt)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.kv("a", 1);
    w.endObject();
    os << '\n';
    EXPECT_EQ(os.str(), "{\"a\":1}\n");
    // A top-level scalar is a whole document too.
    std::ostringstream scalar;
    JsonWriter ws(scalar);
    ws.value(2.5);
    scalar << '\n';
    EXPECT_EQ(scalar.str(), "2.5\n");
}

TEST(Json, WriterDestroyedMidDocumentFlushesWhatItHas)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.kv("a", 1);
        w.key("b");
        w.beginArray();
        w.value(true);
        EXPECT_EQ(os.str(), "");
    }
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[true");
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
}

TEST(Json, NumbersMatchPrintfPercent17g)
{
    // Every finite double prints as "%.17g" would in the C locale
    // (integers below 1e15 take a shorter path to the same digits).
    const auto printf17g = [](double v) {
        char buf[40];
        const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf, static_cast<std::size_t>(len));
    };
    std::vector<double> values = {
        0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 0.5, 1.5, -2.25, 1e-5, 1e16,
        1e17, 1e21, 1e22, 1e-300, 123456789.125,
        DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), 1e15, -1e15,
        std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15),
        std::nextafter(-1e15, 0.0), std::nextafter(-1e15, -2e15),
        std::nextafter(1.0, 0.0), std::nextafter(3.0, 0.0),
        std::nextafter(-7.0, 0.0), std::nextafter(1e14, 0.0),
        std::nextafter(1.0, 2.0), 9007199254740993.0};
    Rng rng(17);
    while (values.size() < 200000) {
        const std::uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            values.push_back(v);
        // Ordinary magnitudes too, which random bits rarely reach.
        values.push_back(rng.uniform(-1e6, 1e6));
    }
    for (const double v : values)
        ASSERT_EQ(jsonNumber(v), printf17g(v)) << std::hexfloat << v;
}

/** A table for tableRows(): names, and which row to leave out. */
struct RowsCase
{
    std::vector<std::string> rows;
    std::vector<std::string> columns;
    std::size_t skip; ///< an index into rows, or rows.size() for none
};

/** Cell (r, col) of a table whose rows cycle, from @p shift, through
 * the kinds the zero-row check must tell apart: all +0.0, a single
 * -0.0 among +0.0, NaN and infinities (null), a subnormal among
 * +0.0, and ordinary numbers. */
double
rowsCell(std::size_t r, std::size_t col, std::size_t shift)
{
    const double x = static_cast<double>(r * 7 + col);
    switch ((r + shift) % 6) {
    case 0:
    case 5: return 0.0;
    case 1: return col == r % 3 ? -0.0 : 0.0;
    case 2:
        return col % 3 == 0   ? std::numeric_limits<double>::quiet_NaN()
               : col % 3 == 1 ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
    case 3:
        return col + 1 == 3 ? std::numeric_limits<double>::denorm_min()
                            : 0.0;
    default: return col % 3 == 0 ? x : col % 3 == 1 ? x / 3.0 : -x;
    }
}

/** Write @p c at @p depth (objects open around its rows) with the
 * generic calls, or with tableRows() when @p bulk. */
std::string
tableJson(const RowsCase &c, std::size_t shift, int indent,
          std::size_t depth, bool before, bool bulk)
{
    const std::size_t shown = c.rows.size() - (c.skip < c.rows.size());
    const auto rowName = [&](std::size_t r) -> std::string_view {
        return c.rows[r < c.skip ? r : r + 1];
    };
    const auto readRow = [&](std::size_t r, double *out) {
        for (std::size_t col = 0; col < c.columns.size(); ++col)
            out[col] = rowsCell(r, col, shift);
    };
    std::ostringstream os;
    {
        JsonWriter w(os, indent);
        w.beginObject();
        for (std::size_t d = 1; d < depth; ++d) {
            w.kv("pad", d);
            w.key("level");
            w.beginObject();
        }
        if (before)
            w.kv("first", 1.5);
        if (bulk) {
            w.tableRows(shown, c.columns, rowName, readRow);
        } else {
            for (std::size_t r = 0; r < shown; ++r) {
                w.key(rowName(r));
                w.beginObject();
                for (std::size_t col = 0; col < c.columns.size(); ++col)
                    w.kv(c.columns[col], rowsCell(r, col, shift));
                w.endObject();
            }
        }
        w.kv("after", true);
        for (std::size_t d = 1; d < depth; ++d)
            w.endObject();
        w.endObject();
    }
    return os.str();
}

TEST(Json, TableRowsMatchGenericWriterCalls)
{
    std::vector<RowsCase> cases;
    const std::vector<std::string> rows = {"a", "b_1", "c", "d9"};
    const std::vector<std::string> columns = {
        "hbm_contention_cycles", "preempt_stall_cycles", "queue_wait_us"};
    for (std::size_t skip = 0; skip <= rows.size(); ++skip)
        cases.push_back({rows, columns, skip});
    cases.push_back({rows, {"only"}, 2});
    cases.push_back({rows, {"only"}, 0});
    cases.push_back({rows, {"only"}, rows.size() - 1});
    cases.push_back({{"solo"}, columns, 1});
    cases.push_back({{"x", "solo"}, columns, 0});
    cases.push_back({{"q\"uote", "back\\slash", "tab\tnl\n\x01"},
                     {"c\"1", "c\\2", "c\n3"},
                     3});
    cases.push_back({rows, {}, 1});
    for (const RowsCase &c : cases) {
        for (std::size_t shift = 0; shift < 6; ++shift) {
            for (const int indent : {0, 2}) {
                for (std::size_t depth = 1; depth <= 4; ++depth) {
                    for (const bool before : {false, true}) {
                        SCOPED_TRACE(::testing::Message()
                                     << c.rows.front() << " skip "
                                     << c.skip << " columns "
                                     << c.columns.size() << " shift "
                                     << shift << " indent " << indent
                                     << " depth " << depth << " before "
                                     << before);
                        const std::string generic = tableJson(
                            c, shift, indent, depth, before, false);
                        EXPECT_EQ(tableJson(c, shift, indent, depth,
                                            before, true),
                                  generic);
                        EXPECT_TRUE(JsonValue::parse(generic));
                    }
                }
            }
        }
    }
    // The cases reach every kind of row: all +0.0, -0.0, null and a
    // subnormal (the four-row case without a skipped row).
    const std::string all =
        tableJson(cases[rows.size()], 0, 0, 1, false, true);
    EXPECT_NE(all.find(":-0"), std::string::npos);
    EXPECT_NE(all.find(":null"), std::string::npos);
    EXPECT_NE(all.find("4.9406564584124654e-324"), std::string::npos);
    EXPECT_NE(all.find("{\"hbm_contention_cycles\":0,"
                       "\"preempt_stall_cycles\":0,"
                       "\"queue_wait_us\":0}"),
              std::string::npos);
}

TEST(Json, ParserReportsErrors)
{
    const Result<JsonValue> bad = JsonValue::parse("{\"a\": }");
    ASSERT_FALSE(bad);
    EXPECT_FALSE(bad.error().message.empty());
    EXPECT_FALSE(JsonValue::parse("[1, 2"));
    EXPECT_FALSE(JsonValue::parse(""));
}

// --- End to end: registry vs RunStats, bit identity, trace, report.

TEST(Observability, FrozenRegistryAgreesWithRunStats)
{
    // Every top-level sched.* leaf equals its RunStats field, or the
    // sum of the per-tenant fields, bit for bit: under all five
    // schedulers, with a warmup (so operators straddle the window
    // and leave window debts), and under a fault plan that injects,
    // retries DMA, replays SA operators and quarantines a tenant.
    const auto plan = FaultPlan::parse(
        "runaway:rate=0.01:mag=4,dma-timeout:rate=0.05,"
        "sa-corrupt:rate=0.3");
    ASSERT_TRUE(plan.ok()) << plan.error().toString();
    struct Case
    {
        SchedulerKind kind;
        std::uint64_t warmup;
        const FaultPlan *faults;
    };
    std::vector<Case> cases;
    for (const SchedulerKind kind :
         {SchedulerKind::Pmt, SchedulerKind::V10Base,
          SchedulerKind::V10Fair, SchedulerKind::V10Full,
          SchedulerKind::Prema}) {
        cases.push_back({kind, 0, nullptr});
        cases.push_back({kind, 3, nullptr});
    }
    cases.push_back({SchedulerKind::V10Full, 3, &plan.value()});
    cases.push_back({SchedulerKind::Pmt, 3, &plan.value()});

    ExperimentRunner runner;
    bool saw_window_debt = false;
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << schedulerKindName(c.kind) << " warmup "
                     << c.warmup << (c.faults ? " faults" : ""));
        StatRegistry reg;
        SchedulerOptions so;
        so.stats = &reg;
        so.resilience.faults = c.faults;
        so.resilience.quarantineThreshold = c.faults ? 3 : 0;
        const RunStats stats = runner.run(
            c.kind, {TenantRequest{"MNST", 0, 1.0},
                     TenantRequest{"NCF", 0, 1.0}},
            4, c.warmup, so);
        ASSERT_TRUE(reg.frozen());
        ASSERT_EQ(stats.workloads.size(), 2u);

        Cycles sa = 0;
        Cycles vu = 0;
        Cycles ctx = 0;
        std::uint64_t preempts = 0;
        std::uint64_t requests = 0;
        for (std::size_t i = 0; i < stats.workloads.size(); ++i) {
            const WorkloadRunStats &w = stats.workloads[i];
            sa += w.saComputeCycles;
            vu += w.vuComputeCycles;
            ctx += w.overheadCycles;
            preempts += w.preemptions;
            requests += w.requests;
            const std::string t = "sched.tenant" + std::to_string(i);
            EXPECT_EQ(reg.value(t + ".requests"),
                      static_cast<double>(w.requests));
            EXPECT_EQ(reg.value(t + ".preemptions"),
                      static_cast<double>(w.preemptions));
            EXPECT_EQ(reg.value(t + ".ctx_overhead_cycles"),
                      static_cast<double>(w.overheadCycles));
            EXPECT_EQ(reg.value(t + ".fault_strikes"),
                      static_cast<double>(w.faultStrikes));
        }
        EXPECT_EQ(reg.value("sched.sa_busy_cycles"),
                  static_cast<double>(sa));
        EXPECT_EQ(reg.value("sched.vu_busy_cycles"),
                  static_cast<double>(vu));
        EXPECT_EQ(reg.value("sched.window_cycles"),
                  static_cast<double>(stats.windowCycles));
        EXPECT_EQ(reg.value("sched.preemptions"),
                  static_cast<double>(preempts));
        EXPECT_EQ(reg.value("sched.ctx_overhead_cycles"),
                  static_cast<double>(ctx));
        EXPECT_EQ(reg.value("sched.requests"),
                  static_cast<double>(requests));
        EXPECT_EQ(reg.value("sched.faults_injected"),
                  static_cast<double>(stats.faultsInjected));
        EXPECT_EQ(reg.value("sched.dma_retries"),
                  static_cast<double>(stats.dmaRetries));
        EXPECT_EQ(reg.value("sched.sa_replays"),
                  static_cast<double>(stats.saReplays));
        EXPECT_EQ(reg.value("sched.quarantined_tenants"),
                  static_cast<double>(stats.quarantinedTenants));
        if (c.faults != nullptr) {
            EXPECT_GT(stats.faultsInjected, 0u);
            EXPECT_GT(stats.dmaRetries, 0u);
            EXPECT_GT(stats.saReplays, 0u);
            EXPECT_GT(stats.quarantinedTenants, 0u);
        }
        // The per-unit counters hold the raw window compute; the
        // sched.* totals have the straddling operators' debts taken
        // off.
        const double raw = reg.value("core.sa0.busy_cycles") +
                           reg.value("core.vu0.busy_cycles");
        EXPECT_GE(raw, static_cast<double>(sa + vu));
        saw_window_debt |= raw > static_cast<double>(sa + vu);

        // --detail prints the frozen registry after the RunStats
        // lines, one registry.<path> line per snapshot entry.
        const std::string detail = stats.detailedReport(&reg);
        EXPECT_EQ(stats.detailedReport().find("registry."),
                  std::string::npos);
        for (const auto &[path, value] : reg.snapshot()) {
            char line[256];
            std::snprintf(line, sizeof(line), "\nregistry.%s  %.6f\n",
                          path.c_str(), value);
            EXPECT_NE(detail.find(line), std::string::npos) << line;
        }

        // Per-unit stats exist.
        EXPECT_TRUE(reg.has("core.hbm.bytes_moved"));
        EXPECT_TRUE(reg.has("core.vmem.capacity_bytes"));
        EXPECT_GT(reg.value("core.hbm.bytes_moved"), 0.0);
    }
    EXPECT_TRUE(saw_window_debt);
}

TEST(Observability, SamplingLeavesSchedulingBitIdentical)
{
    ExperimentRunner runner;
    const RunStats plain = runner.runPair(SchedulerKind::V10Full,
                                          "MNST", "NCF", 1.0, 1.0, 4);

    StatRegistry reg;
    IntervalSampler sampler(5000);
    SchedulerOptions so;
    so.stats = &reg;
    so.sampler = &sampler;
    const RunStats sampled = runner.runPair(
        SchedulerKind::V10Full, "MNST", "NCF", 1.0, 1.0, 4, so);

    EXPECT_GT(sampler.rowCount(), 0u);
    EXPECT_EQ(plain.windowCycles, sampled.windowCycles);
    ASSERT_EQ(plain.workloads.size(), sampled.workloads.size());
    for (std::size_t i = 0; i < plain.workloads.size(); ++i) {
        const auto &a = plain.workloads[i];
        const auto &b = sampled.workloads[i];
        EXPECT_EQ(a.requests, b.requests);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.saComputeCycles, b.saComputeCycles);
        EXPECT_EQ(a.vuComputeCycles, b.vuComputeCycles);
        // Exact double equality is deliberate: same schedule, same
        // arithmetic, bit for bit.
        EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
        EXPECT_EQ(a.p95LatencyUs, b.p95LatencyUs);
    }
}

/** Parsed Chrome-trace structure (slice and counter-event index). */
struct TraceIndex
{
    std::size_t slices = 0;
    std::map<std::string, std::vector<double>> counterTs;

    /** Parse @p text and index its events (gtest failures inside). */
    void
    parse(const std::string &text)
    {
        const Result<JsonValue> parsed = JsonValue::parse(text);
        ASSERT_TRUE(parsed)
            << "trace parse error: " << parsed.error().toString();
        const JsonValue &doc = parsed.value();
        ASSERT_TRUE(doc.isArray()) << "trace is not a JSON array";
        for (const JsonValue &ev : doc.array) {
            const JsonValue *ph = ev.find("ph");
            const JsonValue *ts = ev.find("ts");
            ASSERT_NE(ph, nullptr);
            ASSERT_NE(ts, nullptr);
            EXPECT_TRUE(ts->isNumber());
            EXPECT_GE(ts->number, 0.0);
            if (ph->str == "X") {
                ++slices;
                const JsonValue *dur = ev.find("dur");
                ASSERT_NE(dur, nullptr);
                EXPECT_GE(dur->number, 0.0);
            } else if (ph->str == "C") {
                counterTs[ev.find("name")->str].push_back(ts->number);
            }
        }
    }
};

TEST(Observability, ChromeTraceHasSlicesAndCounterTracks)
{
    ExperimentRunner runner;
    TimelineTracer tracer(runner.config().freqGHz * 1e3);
    IntervalSampler sampler(5000);
    StatRegistry reg;
    tracer.attachSampler(&sampler);
    SchedulerOptions so;
    so.timeline = &tracer;
    so.stats = &reg;
    so.sampler = &sampler;
    runner.runPair(SchedulerKind::V10Full, "MNST", "NCF", 1.0, 1.0, 4,
                   so);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    TraceIndex trace;
    trace.parse(os.str());

    EXPECT_EQ(trace.slices, tracer.sliceCount());
    EXPECT_GT(trace.slices, 0u);
    // The default probe set yields at least three counter tracks.
    EXPECT_GE(trace.counterTs.size(), 3u);
    for (const auto &[name, ts] : trace.counterTs) {
        EXPECT_EQ(ts.size(), sampler.rowCount()) << name;
        EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()))
            << "non-monotonic timestamps on counter track " << name;
    }
}

TEST(Observability, RunReportJsonHasDocumentedSchema)
{
    ExperimentRunner runner;
    StatRegistry reg;
    IntervalSampler sampler(5000);
    SchedulerOptions so;
    so.stats = &reg;
    so.sampler = &sampler;
    const RunStats stats = runner.runPair(
        SchedulerKind::V10Full, "MNST", "NCF", 1.0, 1.0, 4, so);

    RunManifest manifest;
    manifest.tool = "test_observability";
    manifest.scheduler = "V10-Full";
    manifest.configSummary = runner.config().summary();
    manifest.workloads = {stats.workloads[0].label,
                          stats.workloads[1].label};
    manifest.requests = 4;
    manifest.seed = 1;
    manifest.simulatedCycles = stats.windowCycles;
    manifest.wallSeconds = 0.25;
    manifest.sampleInterval = sampler.interval();

    std::ostringstream os;
    writeRunReportJson(os, manifest, stats, &reg, &sampler);

    const Result<JsonValue> parsed = JsonValue::parse(os.str());
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const JsonValue &doc = parsed.value();
    for (const char *k : {"manifest", "run", "registry", "samples"})
        EXPECT_TRUE(doc.has(k)) << k;

    const JsonValue *m = doc.find("manifest");
    EXPECT_EQ(m->find("tool")->str, "test_observability");
    EXPECT_EQ(m->find("scheduler")->str, "V10-Full");
    EXPECT_DOUBLE_EQ(m->find("requests")->number, 4.0);
    EXPECT_EQ(m->find("workloads")->array.size(), 2u);

    const JsonValue *run = doc.find("run");
    EXPECT_TRUE(run->has("stp"));
    EXPECT_TRUE(run->has("fairness"));
    ASSERT_TRUE(run->find("tenants")->isArray());
    ASSERT_EQ(run->find("tenants")->array.size(), 2u);
    EXPECT_TRUE(run->find("tenants")->array[0].has("latency_p95_us"));

    EXPECT_TRUE(doc.find("registry")->has("sched"));
    const JsonValue *samples = doc.find("samples");
    EXPECT_DOUBLE_EQ(samples->find("interval_cycles")->number,
                     5000.0);
    EXPECT_GE(samples->find("probes")->array.size(), 3u);
    ASSERT_TRUE(samples->find("rows")->isArray());
    ASSERT_FALSE(samples->find("rows")->array.empty());
    // Each row is [cycle, probe values...].
    EXPECT_EQ(samples->find("rows")->array[0].array.size(),
              samples->find("probes")->array.size() + 1);
}

// --- V10_PANIC call-site capture. ---

TEST(ObservabilityDeathTest, PanicReportsFileAndLine)
{
    Simulator sim;
    sim.at(100, [] {});
    sim.run();
    // Simulator::at uses V10_PANIC, so the message carries the
    // basename:line of the call site inside simulator.cpp.
    EXPECT_DEATH(sim.at(50, [] {}),
                 "panic: simulator\\.cpp:[0-9]+.*scheduling into the "
                 "past");
}

} // namespace
} // namespace v10
