/**
 * @file
 * Shared scaffolding for the ablation and extension bench binaries:
 * common command-line handling (--csv, --requests, --quick, --jobs)
 * and banner printing. The paper's own figures and tables are
 * `v10sim figure --id <id>`.
 */

#ifndef V10_BENCH_BENCH_COMMON_H
#define V10_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "v10/experiment.h"

namespace v10::bench {

/** Parsed common bench options. */
struct BenchOptions
{
    bool csv = false;            ///< emit CSV instead of a table
    std::uint64_t requests = 25; ///< measured requests per run
    bool quick = false;          ///< --quick: fewer requests (CI)
    /** --jobs: threads for independent simulations (0/"auto" =
     * hardware threads). Results are identical for any value. */
    std::size_t jobs = 1;

    /** Parse argv; exits 0 on --help and 2 on a bad option or
     *  value (--requests must be a positive integer).
     *  @param what banner text. */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &what);
};

/** Print the figure banner unless in CSV mode. */
void banner(const BenchOptions &opts, const std::string &title,
            const std::string &paperRef);

} // namespace v10::bench

#endif // V10_BENCH_BENCH_COMMON_H
