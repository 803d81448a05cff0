/**
 * @file
 * Focused microbenchmarks of the event queue: schedule/fire over the
 * measured delta mix, cancellation churn, same-cycle bursts,
 * closure-size effects on SmallFn storage, and periodic (every())
 * ticking. Run with --perf-json=<path> to emit the machine-readable
 * summary the CI perf-smoke job checks.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.h"
#include "pair_delta_mix.h"
#include "perf_json_main.h"
#include "sim/simulator.h"

namespace {

using namespace v10;

/**
 * Schedule/fire chains whose deltas follow the measured BERT+NCF mix.
 * 32 chains keep 32 events live, the peak measured at Fig. 25's
 * widest point (a `v10sim report` run holds at most 5).
 */
void
BM_ScheduleFire(benchmark::State &state)
{
    constexpr int kLiveEvents = 32;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng(7);
        std::uint64_t budget = 64 * 1024;
        struct Chain
        {
            Simulator *sim;
            Rng *rng;
            std::uint64_t *budget;
            void
            operator()() const
            {
                if (*budget == 0)
                    return;
                --*budget;
                sim->after(bench::drawPairDelta(*rng), Chain{*this});
            }
        };
        for (int i = 0; i < kLiveEvents; ++i)
            sim.after(bench::drawPairDelta(rng),
                      Chain{&sim, &rng, &budget});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScheduleFire);

/**
 * The HBM re-estimation pattern: every fire cancels a pending event
 * and reschedules it (processor-sharing completion estimates move
 * whenever a transfer joins or leaves).
 */
void
BM_CancelRescheduleChurn(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t budget = 32 * 1024;
        EventId pending = kNoEvent;
        struct Churn
        {
            Simulator *sim;
            std::uint64_t *budget;
            EventId *pending;
            void
            operator()() const
            {
                if (*budget == 0)
                    return;
                --*budget;
                sim->cancel(*pending);
                *pending = sim->after(4099, Churn{*this});
                sim->after(509, Churn{*this});
            }
        };
        pending = sim.after(4099, [] {});
        sim.after(509, Churn{&sim, &budget, &pending});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CancelRescheduleChurn);

/** Bursts of same-cycle events: insertion-order tie-breaks. */
void
BM_SameCycleBurst(benchmark::State &state)
{
    const auto burst = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        for (Cycles c = 1; c <= 256; ++c)
            for (int i = 0; i < burst; ++i)
                sim.at(c * 64, [] { benchmark::DoNotOptimize(0); });
        sim.run();
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SameCycleBurst)->Arg(4)->Arg(32);

/** Closure-size effect: inline storage vs a heap spill. */
void
BM_EventFnCaptureSize(benchmark::State &state)
{
    const bool large = state.range(0) != 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1024; ++i) {
            const Cycles when = 1 + static_cast<Cycles>(i % 251);
            if (large) {
                // Four extra words past the inline buffer: spills
                // to new/delete.
                std::uint64_t a = i, b = i + 1, c = i + 2, d = i + 3,
                              e = i + 4, f = i + 5, g = i + 6;
                sim.at(when, [&sink, a, b, c, d, e, f, g] {
                    sink += a + b + c + d + e + f + g;
                });
            } else {
                sim.at(when, [&sink] { ++sink; });
            }
        }
        sim.run();
        benchmark::DoNotOptimize(sink);
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventFnCaptureSize)->Arg(0)->Arg(1);

/** Periodic sampling through every(): tick cost. */
void
BM_PeriodicTicks(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t ticks = 0;
        sim.every(512, [&ticks] { ++ticks; });
        sim.every(1024, [&ticks] { ++ticks; });
        sim.runUntil(512 * 8192);
        benchmark::DoNotOptimize(ticks);
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PeriodicTicks);

} // namespace

int
main(int argc, char **argv)
{
    return v10::bench::perfJsonMain(argc, argv);
}
