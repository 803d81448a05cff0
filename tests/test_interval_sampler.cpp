/**
 * @file
 * IntervalSampler's compact row store against a dense reference:
 * seeded random programs append rows whose cells mix +0.0, -0.0,
 * NaN and infinity bit patterns, denormals, long repeats and fresh
 * values, at equal, regular and off-grid cycles, and every decoded
 * cell must match the reference bit for bit. Also JsonWriter's
 * numberRows() against the generic calls it stands for.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "metrics/interval_sampler.h"
#include "sim/simulator.h"

namespace v10 {
namespace {

/** @p prefix followed by @p n (built with +=, which GCC 12's
 * -Wrestrict does not misread at -O3). */
std::string
label(const char *prefix, std::uint64_t n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

/** The dense table the sampler used to keep. */
struct DenseRows
{
    std::vector<Cycles> cycles;
    std::vector<std::vector<double>> rows;
};

/** A cell value drawn from the patterns the store classifies. */
double
drawCell(Rng &rng, const DenseRows &ref, std::size_t col)
{
    static const double kSpecial[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::max(),
        1.0,
    };
    const std::uint64_t pick = rng.uniformInt(10);
    if (pick < 4 && !ref.rows.empty())
        return ref.rows.back()[col]; // a repeat of the cell above
    if (pick < 6 && ref.rows.size() > 1)
        return ref.rows[ref.rows.size() - 2][col]; // two rows up
    if (pick < 8)
        return kSpecial[rng.uniformInt(std::size(kSpecial))];
    if (pick < 9)
        return std::bit_cast<double>(rng.next()); // any bit pattern
    return rng.uniform(-1.0, 1.0);
}

/** The next row cycle: repeated, on a grid, or off it. */
Cycles
drawCycle(Rng &rng, const DenseRows &ref, Cycles step)
{
    if (ref.cycles.empty())
        return rng.uniformInt(1000);
    const Cycles last = ref.cycles.back();
    switch (rng.uniformInt(8)) {
    case 0:
        return last; // equal cycles
    case 1:
        return last + 1 + rng.uniformInt(3 * step); // off the grid
    default:
        return last + step;
    }
}

/** Decode every row of @p s and compare it with @p ref bit for bit. */
void
expectSameRows(const IntervalSampler &s, const DenseRows &ref,
               const std::string &what)
{
    ASSERT_EQ(s.rowCount(), ref.rows.size()) << what;
    std::size_t r = 0;
    for (auto row = s.rows(); row.next(); ++r) {
        ASSERT_LT(r, ref.rows.size()) << what;
        ASSERT_EQ(row.cycle(), ref.cycles[r]) << what << " row " << r;
        for (std::size_t c = 0; c < s.probeCount(); ++c)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(row.values()[c]),
                      std::bit_cast<std::uint64_t>(ref.rows[r][c]))
                << what << " row " << r << " col " << c;
    }
    EXPECT_EQ(r, ref.rows.size()) << what;
}

TEST(IntervalSamplerStore, ManualRowsMatchDenseReferenceBitForBit)
{
    // Widths past 64 columns span several class words per row, as a
    // serve run's two columns per core do.
    for (const std::size_t width : {1u, 3u, 6u, 31u, 33u, 64u, 130u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Rng rng(seed * 1000 + width);
            IntervalSampler sampler(100);
            for (std::size_t c = 0; c < width; ++c)
                sampler.addManualColumn(label("c", c));
            DenseRows ref;
            const Cycles step = 1 + rng.uniformInt(20000);
            const std::size_t rows = 1 + rng.uniformInt(700);
            std::vector<double> row(width);
            for (std::size_t r = 0; r < rows; ++r) {
                const Cycles cycle = drawCycle(rng, ref, step);
                // Long runs of one repeated row.
                const bool hold = !ref.rows.empty() && rng.uniformInt(4) == 0;
                for (std::size_t c = 0; c < width; ++c)
                    row[c] = hold ? ref.rows.back()[c]
                                  : drawCell(rng, ref, c);
                sampler.appendRow(cycle, row);
                ref.cycles.push_back(cycle);
                ref.rows.push_back(row);
            }
            expectSameRows(sampler, ref,
                           label("width ", width) + label(" seed ", seed));
        }
    }
}

TEST(IntervalSamplerStore, CyclesMayFallOrWrap)
{
    // Cycle runs take their steps modulo 2^64; a falling or wrapping
    // sequence still decodes exactly.
    IntervalSampler sampler(100);
    sampler.addManualColumn("x");
    DenseRows ref;
    const Cycles kTop = std::numeric_limits<Cycles>::max();
    for (const Cycles cycle : {Cycles{500}, Cycles{400}, Cycles{300},
                               Cycles{300}, kTop - 1, kTop, Cycles{0},
                               Cycles{1}, Cycles{7}}) {
        sampler.appendRow(cycle, {1.0});
        ref.cycles.push_back(cycle);
        ref.rows.push_back({1.0});
    }
    expectSameRows(sampler, ref, "falling");
}

TEST(IntervalSamplerStore, TicksAndPartialRowMatchDenseReference)
{
    // Level probes read a scripted value per tick; stop() adds the
    // partial row off the tick grid.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const Cycles interval = 2 + rng.uniformInt(500);
        const std::size_t width = 1 + rng.uniformInt(12);
        Simulator sim;
        IntervalSampler sampler(interval);
        DenseRows ref;
        std::vector<double> current(width, 0.0);
        for (std::size_t c = 0; c < width; ++c)
            sampler.addProbe(label("p", c),
                             IntervalSampler::Mode::Level,
                             [&current, c] { return current[c]; });
        sampler.start(sim);
        const std::size_t ticks = 1 + rng.uniformInt(400);
        for (std::size_t k = 1; k <= ticks; ++k) {
            // Script the values the tick at k * interval will read.
            for (std::size_t c = 0; c < width; ++c)
                current[c] = drawCell(rng, ref, c);
            ref.cycles.push_back(k * interval);
            ref.rows.push_back(current);
            sim.runUntil(k * interval);
        }
        // Strictly between two ticks, so no tick fires at the end.
        const Cycles end =
            ticks * interval + 1 + rng.uniformInt(interval - 1);
        sim.runUntil(end);
        for (std::size_t c = 0; c < width; ++c)
            current[c] = drawCell(rng, ref, c);
        ref.cycles.push_back(end);
        ref.rows.push_back(current);
        sampler.stop();
        expectSameRows(sampler, ref, label("seed ", seed));
    }
}

TEST(IntervalSamplerStore, StopReadsTheLastRowCycle)
{
    // stop() on a tick cycle adds no row; off it, the partial row's
    // rate divides by the span since the last row's cycle.
    for (const Cycles end : {Cycles{300}, Cycles{350}}) {
        Simulator sim;
        double accum = 0.0;
        // One event per 10 cycles; those on a tick cycle fire before
        // the tick, as they were scheduled first.
        for (Cycles t = 10; t <= 340; t += 10)
            sim.at(t, [&accum] { accum += 1.0; });
        IntervalSampler sampler(100);
        sampler.addProbe("rate", IntervalSampler::Mode::Rate,
                         [&accum] { return accum; });
        sampler.start(sim);
        sim.runUntil(end);
        sampler.stop();
        DenseRows ref;
        for (const Cycles tick : {Cycles{100}, Cycles{200}, Cycles{300}}) {
            ref.cycles.push_back(tick);
            ref.rows.push_back({10.0 / 100.0});
        }
        if (end == 350) {
            ref.cycles.push_back(350);
            ref.rows.push_back({(34.0 - 30.0) / 50.0});
        }
        expectSameRows(sampler, ref, label("end ", end));
    }
}

/** numberRows() output and the generic calls' output for @p rows. */
std::pair<std::string, std::string>
renderBoth(const std::vector<std::vector<double>> &rows,
           std::size_t width, int indent)
{
    const auto render = [&](bool fast) {
        std::ostringstream os;
        {
            JsonWriter w(os, indent);
            w.beginObject();
            w.key("rows");
            w.beginArray();
            w.value(std::uint64_t{7}); // an item before the rows
            if (fast) {
                w.numberRows(rows.size(), width,
                             [&](std::size_t r, double *cells) {
                                 std::copy(rows[r].begin(),
                                           rows[r].end(), cells);
                                 return std::uint64_t{r * 1000};
                             });
            } else {
                for (std::size_t r = 0; r < rows.size(); ++r) {
                    w.beginArray();
                    w.value(std::uint64_t{r * 1000});
                    for (const double v : rows[r])
                        w.value(v);
                    w.endArray();
                }
            }
            w.endArray();
            w.endObject();
        }
        return os.str();
    };
    return {render(true), render(false)};
}

TEST(Json, NumberRowsMatchGenericCalls)
{
    Rng rng(29);
    DenseRows none;
    for (const std::size_t width : {0u, 1u, 7u}) {
        std::vector<std::vector<double>> rows;
        for (std::size_t r = 0; r < 40; ++r) {
            std::vector<double> row(width);
            for (double &v : row)
                v = drawCell(rng, none, 0);
            rows.push_back(row);
        }
        for (const int indent : {0, 2, 3}) {
            const auto [fast, generic] = renderBoth(rows, width, indent);
            EXPECT_EQ(fast, generic)
                << "width " << width << " indent " << indent;
        }
    }
}

} // namespace
} // namespace v10
