#include "common/parallel_executor.h"

#include <atomic>
#include <exception>
#include <memory>

#include "common/string_util.h"

namespace v10 {

/** Completion state shared by every task of one forEach() call. */
struct ParallelExecutor::Batch
{
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
};

ParallelExecutor::ParallelExecutor(std::size_t jobs)
    : jobs_(jobs == 0 ? 1 : jobs)
{
    // The calling thread is one of the `jobs` lanes, so spawn one
    // fewer worker; jobs=1 spawns none and stays purely serial.
    workers_.reserve(jobs_ - 1);
    for (std::size_t i = 0; i + 1 < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    task_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::size_t
ParallelExecutor::hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

Result<std::size_t>
ParallelExecutor::parseJobs(const std::string &value)
{
    if (value == "auto" || value == "0")
        return hardwareJobs();
    // Digits only: stoul would silently wrap "-3" to a huge count.
    bool digits = !value.empty();
    for (char c : value)
        digits = digits && c >= '0' && c <= '9';
    std::size_t pos = 0;
    unsigned long n = 0;
    try {
        n = digits ? std::stoul(value, &pos) : 0;
    } catch (const std::exception &) {
        pos = 0;
    }
    if (!digits || pos != value.size() || n == 0)
        return parseError("--jobs: expected a positive integer or "
                          "'auto', got '" +
                          value + "'");
    constexpr unsigned long kMaxJobs = 1024;
    if (n > kMaxJobs)
        return parseError("--jobs: " + value +
                          " exceeds the limit of " +
                          std::to_string(kMaxJobs));
    return static_cast<std::size_t>(n);
}

bool
ParallelExecutor::runOneTask()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
}

void
ParallelExecutor::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            task_cv_.wait(lock,
                          [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ParallelExecutor::forEach(std::size_t count,
                          const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;

    if (jobs_ == 1) {
        // Serial fast path: identical to the loop it replaces.
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->remaining = count;

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < count; ++i) {
            // fn outlives the batch: forEach() blocks until every
            // task completed, so capturing it by reference is safe.
            queue_.emplace_back([batch, &fn, i] {
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> blk(batch->mu);
                    if (!batch->error)
                        batch->error = std::current_exception();
                }
                std::lock_guard<std::mutex> blk(batch->mu);
                if (--batch->remaining == 0)
                    batch->done_cv.notify_all();
            });
        }
    }
    task_cv_.notify_all();

    // The caller is a worker too: drain tasks (possibly from other
    // concurrent batches) until the global queue empties, then wait
    // for this batch's stragglers.
    while (runOneTask()) {
    }
    {
        std::unique_lock<std::mutex> lock(batch->mu);
        batch->done_cv.wait(lock,
                            [&] { return batch->remaining == 0; });
        if (batch->error)
            std::rethrow_exception(batch->error);
    }
}

} // namespace v10
