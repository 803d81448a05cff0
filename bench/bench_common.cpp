#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parallel_executor.h"
#include "common/string_util.h"

namespace v10::bench {

BenchOptions
BenchOptions::parse(int argc, char **argv, const std::string &what)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--csv") == 0) {
            opts.csv = true;
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
            opts.requests = 8;
        } else if (std::strcmp(arg, "--requests") == 0 &&
                   i + 1 < argc) {
            const auto n = parseUint64(argv[++i]);
            if (!n || *n == 0) {
                std::fprintf(stderr,
                             "--requests expects a positive integer, "
                             "got '%s'\n",
                             argv[i]);
                std::exit(2);
            }
            opts.requests = *n;
        } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            Result<std::size_t> jobs =
                ParallelExecutor::parseJobs(argv[++i]);
            if (!jobs) {
                std::fprintf(stderr, "%s\n",
                             jobs.error().toString().c_str());
                std::exit(2);
            }
            opts.jobs = jobs.value();
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("%s\n\nOptions:\n"
                        "  --csv             emit CSV rows\n"
                        "  --requests <n>    measured requests per "
                        "run (default 25)\n"
                        "  --quick           fast mode (8 requests)\n"
                        "  --jobs <n|auto>   threads for independent "
                        "simulations (default 1;\n"
                        "                    results are identical "
                        "for any value)\n",
                        what.c_str());
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            std::exit(2);
        }
    }
    return opts;
}

void
banner(const BenchOptions &opts, const std::string &title,
       const std::string &paperRef)
{
    if (opts.csv)
        return;
    std::printf("== %s ==\n(reproduces %s of \"V10: "
                "Hardware-Assisted NPU Multi-tenancy\", ISCA'23)\n\n",
                title.c_str(), paperRef.c_str());
}

} // namespace v10::bench
