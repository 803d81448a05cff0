/**
 * @file
 * The measured BERT+NCF scheduling-delta histogram (captured with an
 * instrumented queue), shared by the event-core benches that replay
 * it.
 */

#ifndef V10_BENCH_PAIR_DELTA_MIX_H
#define V10_BENCH_PAIR_DELTA_MIX_H

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace v10::bench {

/** (log2 upper bound of delta, weight). */
struct DeltaBin
{
    int log2;
    std::uint64_t weight;
};

inline constexpr DeltaBin kPairDeltaBins[] = {
    {10, 6910},  {11, 10100}, {12, 8250}, {13, 13390}, {14, 17170},
    {15, 22855}, {16, 3305},  {17, 1825}, {18, 1785},  {19, 1525}};

/** Draw one delta: a bin by weight, then uniform inside the bin. */
inline Cycles
drawPairDelta(Rng &rng)
{
    static const std::uint64_t total_weight = [] {
        std::uint64_t total = 0;
        for (const auto &bin : kPairDeltaBins)
            total += bin.weight;
        return total;
    }();
    std::uint64_t r = rng.next() % total_weight;
    for (const auto &bin : kPairDeltaBins) {
        if (r < bin.weight) {
            const Cycles lo = Cycles{1} << (bin.log2 - 1);
            return lo + static_cast<Cycles>(rng.next() % lo);
        }
        r -= bin.weight;
    }
    return 1; // unreachable
}

} // namespace v10::bench

#endif // V10_BENCH_PAIR_DELTA_MIX_H
