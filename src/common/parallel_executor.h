/**
 * @file
 * Deterministic fixed-size thread pool for embarrassingly parallel
 * experiment fan-out.
 *
 * Design constraints (see DESIGN.md and the determinism tests):
 *  - no work stealing between batches and no completion-order
 *    dependence: results are always collected by submission index,
 *    so a batch's output is bit-identical whether it ran on 1 or N
 *    threads;
 *  - jobs=1 runs every task inline on the calling thread with no
 *    worker threads at all, making the serial path *literally* the
 *    sequential loop it replaces;
 *  - the calling thread participates in draining the queue, so a
 *    batch submitted from inside a task cannot deadlock the pool.
 */

#ifndef V10_COMMON_PARALLEL_EXECUTOR_H
#define V10_COMMON_PARALLEL_EXECUTOR_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"

namespace v10 {

/**
 * Fixed thread pool (jobs-1 workers + the calling thread) that runs
 * index-addressed task batches and reports results in submission
 * order.
 */
class ParallelExecutor
{
  public:
    /** @param jobs total concurrency; 0 and 1 both mean serial. */
    explicit ParallelExecutor(std::size_t jobs = 1);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Configured concurrency (>= 1). */
    std::size_t jobs() const { return jobs_; }

    /**
     * Run fn(0), fn(1), ..., fn(count-1) across the pool and block
     * until every call returned. Tasks may execute on any thread in
     * any order; the first exception thrown by any task is rethrown
     * here after the batch drains.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn);

    /**
     * forEach() collecting fn(i) into slot i of the result vector:
     * output order is submission order regardless of completion
     * order, which is what makes parallel sweeps deterministic.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t count, const std::function<R(std::size_t)> &fn)
    {
        std::vector<R> out(count);
        forEach(count,
                [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** std::thread::hardware_concurrency() clamped to >= 1. */
    static std::size_t hardwareJobs();

    /**
     * Parse a --jobs value: positive integer up to 1024, or
     * 0/"auto" for hardwareJobs(). An error names the bad value.
     */
    static Result<std::size_t> parseJobs(const std::string &value);

  private:
    struct Batch;

    void workerLoop();
    /** Pop one queued task and run it; false if the queue is empty. */
    bool runOneTask();

    std::size_t jobs_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable task_cv_;
    std::deque<std::function<void()>> queue_ V10_GUARDED_BY(mu_);
    bool stop_ V10_GUARDED_BY(mu_) = false;
};

} // namespace v10

#endif // V10_COMMON_PARALLEL_EXECUTOR_H
