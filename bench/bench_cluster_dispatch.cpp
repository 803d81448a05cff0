/**
 * @file
 * Fleet-level dispatch study (§3.5 "Put It All Together", not a
 * numbered figure): a pool of services dispatched across NPU cores
 * under NoSharing / RandomPairing / ClusteredPairing, comparing
 * aggregate throughput, cores used, and per-core efficiency.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/string_util.h"
#include "v10/npu_cluster.h"

int
main(int argc, char **argv)
{
    using namespace v10;
    using namespace v10::bench;

    const auto opts = BenchOptions::parse(
        argc, argv, "Fleet dispatch: §3.5 end-to-end pipeline");
    banner(opts, "Cluster-level workload dispatch", "§3.5");

    ClusterConfig cfg;
    cfg.numCores = 10;
    cfg.requests = opts.quick ? 4 : opts.requests;
    NpuCluster cluster(cfg);
    const auto fail = [](const ParseError &error) {
        std::fprintf(stderr, "bench_cluster_dispatch: %s\n",
                     error.toString().c_str());
        return kExitUsage;
    };
    for (const char *m : {"BERT", "NCF", "RsNt", "DLRM", "RNRS",
                          "SMask", "TFMR", "RtNt", "ENet", "MNST"}) {
        if (Status s = cluster.addWorkload(m); !s)
            return fail(s.error());
    }
    if (Status s = cluster.trainAdvisor(opts.quick ? 4 : 6); !s)
        return fail(s.error());

    TextTable table({"dispatch", "cores", "fleet STP",
                     "STP per core", "mean SA util"});
    CsvWriter csv(std::cout);
    if (opts.csv)
        csv.header({"dispatch", "cores", "fleet_stp", "stp_per_core",
                    "mean_sa_util"});

    for (DispatchPolicy policy :
         {DispatchPolicy::NoSharing, DispatchPolicy::RandomPairing,
          DispatchPolicy::ClusteredPairing}) {
        const Result<ClusterResult> placed =
            cluster.dispatchAndRun(policy, 7);
        if (!placed)
            return fail(placed.error());
        const ClusterResult &r = placed.value();
        const double per_core =
            r.fleetStp / static_cast<double>(r.coresUsed);
        if (opts.csv) {
            csv.row({dispatchPolicyName(policy),
                     std::to_string(r.coresUsed),
                     formatDouble(r.fleetStp, 3),
                     formatDouble(per_core, 3),
                     formatDouble(r.meanSaUtil, 4)});
        } else {
            table.addRow();
            table.cell(dispatchPolicyName(policy));
            table.cell(static_cast<long long>(r.coresUsed));
            table.cell(r.fleetStp, 2);
            table.cell(per_core, 2);
            table.cellPct(r.meanSaUtil);
        }
        if (!opts.csv &&
            policy == DispatchPolicy::ClusteredPairing) {
            std::printf("clustered assignment:");
            for (const auto &core : r.assignment) {
                std::printf("  [");
                for (std::size_t i = 0; i < core.size(); ++i)
                    std::printf("%s%s", i ? "+" : "",
                                core[i].c_str());
                std::printf("]");
            }
            std::printf("\n");
        }
    }
    if (!opts.csv) {
        table.print();
        std::printf(
            "\nClusteredPairing reaches the highest fleet "
            "throughput on roughly half of NoSharing's cores: it "
            "pairs the complementary services and deliberately "
            "leaves contending ones (e.g. RNRS, TFMR) on dedicated "
            "cores instead of forcing a bad pairing — the "
            "deployment story of §3.5.\n");
    }
    return 0;
}
