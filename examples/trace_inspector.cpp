/**
 * @file
 * Trace inspector: synthesizes a workload's compiled request trace,
 * saves it in the replayable text format, and disassembles the
 * instruction stream of its first operators — the artifacts the
 * paper's trace-replay simulator consumes.
 */

#include <cstdio>

#include "isa/instruction_stream.h"
#include "workload/model_zoo.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

int
main(int argc, char **argv)
{
    using namespace v10;

    const std::string model = argc > 1 ? argv[1] : "DLRM";
    const NpuConfig cfg;
    const Workload wl = Workload::fromName(model, 0, cfg);
    const RequestTrace &trace = wl.trace();

    std::printf("%s: %zu operators per request (%zu SA, %zu VU), "
                "%.2f ms compute, %.1f MiB DMA\n\n",
                wl.label().c_str(), trace.ops.size(),
                trace.saOpCount(), trace.vuOpCount(),
                cfg.cyclesToUs(trace.computeCycles()) / 1000.0,
                static_cast<double>(trace.totalDmaBytes) /
                    (1024.0 * 1024.0));

    std::printf("first operators:\n");
    const std::size_t show = std::min<std::size_t>(6, trace.ops.size());
    for (std::size_t i = 0; i < show; ++i) {
        const TensorOperator &op = trace.ops[i];
        std::printf("  [%zu] %-4s %-12s %8.1f us  %6.2f MiB  deps:",
                    i, opKindName(op.kind), op.name.c_str(),
                    cfg.cyclesToUs(op.computeCycles),
                    static_cast<double>(op.dmaBytes) /
                        (1024.0 * 1024.0));
        for (auto d : op.deps)
            std::printf(" %u", d);
        std::printf("\n");

        const InstructionStream stream =
            op.kind == OpKind::SA
                ? InstructionStream::forSaOp(
                      SaOpShape{cfg.saDim, op.saRows})
                : InstructionStream::forVuOp(
                      VuOpShape{op.vuElements, cfg.vuLanes, 1});
        std::printf("      %llu instructions, %llu cycles; head: ",
                    static_cast<unsigned long long>(
                        stream.instructionCount()),
                    static_cast<unsigned long long>(
                        stream.totalCycles()));
        for (const Instruction &inst : stream.prefix(4))
            std::printf("[%s] ", inst.disassemble().c_str());
        std::printf("...\n");
    }

    const std::string path = "/tmp/" + wl.profile().abbrev +
                             "_trace.txt";
    if (Status s = saveTraceFile(
            path, TraceHeader{wl.profile().abbrev, wl.batch()}, trace);
        !s) {
        std::fprintf(stderr, "%s\n", s.error().toString().c_str());
        return 2;
    }
    std::printf("\nfull trace written to %s (replayable via "
                "Workload::fromTraceFile)\n",
                path.c_str());
    return 0;
}
