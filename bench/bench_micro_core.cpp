/**
 * @file
 * google-benchmark microbenchmarks of the simulation core: event
 * queue throughput, HBM processor-sharing updates, scheduler
 * decision cost, and trace generation — the primitives whose speed
 * bounds how many paper experiments the harness can run per second.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "npu/hbm.h"
#include "npu/npu_core.h"
#include "pair_delta_mix.h"
#include "perf_json_main.h"
#include "sched/op_scheduler.h"
#include "sched/priority_policy.h"
#include "sched/rr_policy.h"
#include "sim/simulator.h"
#include "workload/model_zoo.h"
#include "workload/trace_gen.h"
#include "workload/workload.h"

namespace {

using namespace v10;
using bench::drawPairDelta;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        for (int i = 0; i < 1024; ++i)
            sim.after(static_cast<Cycles>(i * 7 % 257),
                      [] { benchmark::DoNotOptimize(0); });
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_HbmProcessorSharing(benchmark::State &state)
{
    const auto streams = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        HbmModel hbm(sim, 471.0);
        int done = 0;
        for (int i = 0; i < streams; ++i)
            hbm.startTransfer(1_MiB + i * 1024, [&] { ++done; });
        sim.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * streams);
}
BENCHMARK(BM_HbmProcessorSharing)->Arg(2)->Arg(8)->Arg(32);

/**
 * The engine's DMA steady state: N owners each keep one transfer in
 * flight and issue the next from its completion callback, so every
 * completion is a membership change that re-keys the next one.
 */
void
BM_HbmChainedTransfers(benchmark::State &state)
{
    constexpr int kPerOwner = 64;
    const auto owners = static_cast<int>(state.range(0));
    struct Owner
    {
        HbmModel *hbm;
        WorkloadId id;
        Bytes bytes;
        int left;

        void
        issue()
        {
            --left;
            hbm->startTransfer(bytes, id, [this] {
                if (left > 0)
                    issue();
            });
        }
    };
    for (auto _ : state) {
        Simulator sim;
        HbmModel hbm(sim, 471.0);
        std::vector<Owner> chain;
        for (int i = 0; i < owners; ++i)
            chain.push_back(Owner{&hbm, static_cast<WorkloadId>(i),
                                  64_KiB + static_cast<Bytes>(i) * 4096,
                                  kPerOwner});
        for (auto &o : chain)
            o.issue();
        sim.run();
        benchmark::DoNotOptimize(hbm.bytesMoved());
    }
    state.SetItemsProcessed(state.iterations() * owners * kPerOwner);
}
BENCHMARK(BM_HbmChainedTransfers)->Arg(2)->Arg(16);

void
BM_TraceGeneration(benchmark::State &state)
{
    const NpuConfig config;
    const ModelProfile &model = findModel("RetinaNet");
    for (auto _ : state) {
        RequestTrace trace = generateTrace(model, 32, config);
        benchmark::DoNotOptimize(trace.ops.size());
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_CollocatedPairRun(benchmark::State &state)
{
    const NpuConfig config;
    const Workload bert(findModel("BERT"), 32, config);
    const Workload ncf(findModel("NCF"), 32, config);
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        NpuCore core(sim, config, 2, true);
        OperatorScheduler sched(sim, core,
                                {TenantSpec{&bert, 1.0},
                                 TenantSpec{&ncf, 1.0}},
                                OperatorScheduler::Variant::Full);
        const RunStats stats = sched.run(3, 1);
        benchmark::DoNotOptimize(stats.stp());
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CollocatedPairRun)->Unit(benchmark::kMillisecond);

/**
 * The paper-pair event-core bench: replays the measured
 * scheduling-delta distribution of the BERT+NCF pair run through
 * the per-event stepping path the scheduler engine uses. Its
 * events/sec is the event-core ceiling of the pair simulation, with
 * the operator-scheduler logic factored out.
 */
void
BM_PairEventPatternReplay(benchmark::State &state)
{
    constexpr int kLiveEvents = 64;
    constexpr std::uint64_t kChainLength = 2048;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng(0xC0FFEEu);
        std::uint64_t budget = kLiveEvents * kChainLength;
        // Self-perpetuating chains: each fired event schedules its
        // successor at a drawn delta, like DMA-completion and
        // FU-retire chains do in the real run.
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
                sim->after(drawPairDelta(*rng), Chain{*this});
            }
        };
        for (int i = 0; i < kLiveEvents; ++i)
            sim.after(drawPairDelta(rng),
                      Chain{&sim, &rng, &budget});
        while (sim.step()) {
        }
        events += sim.eventsRun();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PairEventPatternReplay);

void
BM_PolicyDecision(benchmark::State &state)
{
    // Host-side cost of one Algorithm 1 scheduling decision over N
    // tenants (the hardware pays Table 3's 22-284 cycles; this is
    // the simulator's corresponding hot path).
    const auto tenants = static_cast<std::uint32_t>(state.range(0));
    ContextTable table(tenants);
    for (WorkloadId i = 0; i < tenants; ++i) {
        table.row(i).ready = (i % 2) == 0;
        table.row(i).opType = (i % 3) ? OpKind::SA : OpKind::VU;
        table.row(i).activeCycles = 1000 + i * 37;
        table.row(i).totalCycles = 5000;
    }
    PriorityPolicy policy;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            policy.pickNext(table, OpKind::SA));
    }
}
BENCHMARK(BM_PolicyDecision)->Arg(2)->Arg(8)->Arg(32);

void
BM_RoundRobinDecision(benchmark::State &state)
{
    const auto tenants = static_cast<std::uint32_t>(state.range(0));
    ContextTable table(tenants);
    for (WorkloadId i = 0; i < tenants; ++i) {
        table.row(i).ready = true;
        table.row(i).opType = OpKind::SA;
        table.row(i).totalCycles = 5000;
    }
    RoundRobinPolicy policy;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            policy.pickNext(table, OpKind::SA));
    }
}
BENCHMARK(BM_RoundRobinDecision)->Arg(2)->Arg(32);

} // namespace

int
main(int argc, char **argv)
{
    return v10::bench::perfJsonMain(argc, argv);
}
