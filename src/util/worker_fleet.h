/**
 * @file
 * The project's one worker primitive: a fixed set of persistent
 * worker threads draining task batches from any number of concurrent
 * submitters. A GA generation (Section 3.1(b)), a resonance sweep and
 * the service's multiplexed search jobs all fan out through it: each
 * caller blocks only on *its own* batch while the workers drain every
 * admitted batch in admission order, so a private evaluator and the
 * evaluation tasks of hundreds of in-flight search jobs use the same
 * code path.
 *
 * Design constraints:
 *  - Callers own determinism. Each task receives its item index and
 *    the executing worker id; per-worker state (cloned platforms)
 *    is indexed by worker id and reproducible noise derives from the
 *    item, never from scheduling order. Which batch a worker drains
 *    next is scheduling, not semantics: every result slot is written
 *    by exactly one task, so batch interleaving cannot change any
 *    result bit.
 *  - Batches are FIFO with overlap: workers finish claiming indices
 *    of an earlier batch before starting a later one, but a later
 *    batch starts as soon as claims (not completions) of the earlier
 *    one run out — no convoy behind one slow task.
 *  - Cancellation drains, never poisons: a batch submitted with a
 *    cancel flag skips tasks that have not started once the flag is
 *    set. Skipped tasks are *counted and reported* to the submitting
 *    caller only; other batches in flight are untouched.
 *  - Exceptions propagate: the first exception a batch's task throws
 *    is rethrown on that batch's submitting thread after the batch
 *    drains; the batch's other tasks still run.
 */

#ifndef EMSTRESS_UTIL_WORKER_FLEET_H
#define EMSTRESS_UTIL_WORKER_FLEET_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"

namespace emstress {

/**
 * Number of worker threads to use when a caller asks for "auto"
 * (thread count 0): the EMSTRESS_THREADS environment variable when
 * set to a positive integer, otherwise the hardware concurrency
 * (never less than 1).
 */
inline std::size_t
defaultThreadCount()
{
    // Operational knob, not a seed: thread count never changes
    // results (the determinism suite proves 1/2/8-thread
    // bit-identity), only how fast they arrive.
    if (const char *env = std::getenv("EMSTRESS_THREADS")) { // lint: env-config
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

/**
 * Resolve a requested thread count: 0 means defaultThreadCount(),
 * anything else is taken literally.
 */
inline std::size_t
resolveThreadCount(std::size_t requested)
{
    return requested == 0 ? defaultThreadCount() : requested;
}

/**
 * Fixed set of persistent workers draining task batches from any
 * number of concurrent submitters.
 */
class WorkerFleet
{
  public:
    /** Task signature: (item index, worker id). */
    using Task = std::function<void(std::size_t, std::size_t)>;

    /** Outcome of one submitted batch. */
    struct BatchOutcome
    {
        std::size_t executed = 0; ///< Tasks that ran to completion.
        std::size_t skipped = 0;  ///< Tasks dropped by cancellation.
    };

    /**
     * Start the workers.
     * @param threads Worker count; 0 means defaultThreadCount().
     */
    explicit WorkerFleet(std::size_t threads)
    {
        const std::size_t n = resolveThreadCount(threads);
        workers_.reserve(n);
        for (std::size_t w = 0; w < n; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    WorkerFleet(const WorkerFleet &) = delete;
    WorkerFleet &operator=(const WorkerFleet &) = delete;

    ~WorkerFleet()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Submit one batch — fn(i, worker) for every i in [0, n) — and
     * block until every index is executed or skipped. May be called
     * from any number of threads concurrently, but not from inside a
     * task of this same fleet: a worker waiting on its own fleet
     * could deadlock it, so that call throws SimulationError (which
     * then propagates like any task exception).
     *
     * @param n      Item count.
     * @param fn     Task body; each index runs at most once.
     * @param cancel Optional cancellation flag. Once it reads true,
     *               indices not yet claimed are skipped (tasks
     *               already running complete normally).
     */
    BatchOutcome
    run(std::size_t n, const Task &fn,
        const std::atomic<bool> *cancel = nullptr)
    {
        BatchOutcome out;
        if (n == 0)
            return out;
        requireSim(current_fleet_ != this,
                   "WorkerFleet::run called from one of its own tasks");
        Batch batch;
        batch.fn = &fn;
        batch.n = n;
        batch.cancel = cancel;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(&batch);
        }
        work_cv_.notify_all();
        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            batch.done_cv.wait(lock, [&batch] {
                return batch.completed == batch.n;
            });
            // Copy the outcome out while still holding the lock.
            // Reading after the scope closed was flagged by lint R7:
            // it leaned on the wait's final mutex reacquire for the
            // visibility of the last worker's error/executed writes.
            error = batch.error;
            out.executed = batch.executed;
        }
        if (error)
            std::rethrow_exception(error);
        out.skipped = n - out.executed;
        return out;
    }

  private:
    /** One submitted batch's coordination state (caller's stack).
     *  `fn`/`n`/`cancel` are written once before publication and
     *  read-only afterwards; the progress fields are shared with the
     *  workers and annotated for lint R7. */
    struct Batch
    {
        const Task *fn = nullptr;
        std::size_t n = 0;
        const std::atomic<bool> *cancel = nullptr;
        /// Next unclaimed index. guards: mutex_
        std::size_t next = 0;
        /// Executed + skipped so far. guards: mutex_
        std::size_t completed = 0;
        /// Ran to completion. guards: mutex_
        std::size_t executed = 0;
        /// First task exception. guards: mutex_
        std::exception_ptr error;
        std::condition_variable done_cv;
    };

    void
    workerLoop(std::size_t worker)
    {
        current_fleet_ = this;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            work_cv_.wait(lock, [this] {
                return stop_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            Batch *batch = queue_.front();
            const std::size_t i = batch->next++;
            const bool last_claim = batch->next >= batch->n;
            if (last_claim)
                queue_.pop_front();
            const bool cancelled =
                batch->cancel != nullptr
                && batch->cancel->load(std::memory_order_relaxed);
            if (cancelled) {
                // Drain without executing: count the skip and move
                // on. The batch completes once every index is
                // accounted for, running tasks included.
                if (++batch->completed == batch->n)
                    batch->done_cv.notify_all();
                continue;
            }
            lock.unlock();
            std::exception_ptr err;
            try {
                (*batch->fn)(i, worker);
            } catch (...) {
                err = std::current_exception();
            }
            lock.lock();
            if (err && !batch->error)
                batch->error = err;
            if (!err)
                ++batch->executed;
            if (++batch->completed == batch->n)
                batch->done_cv.notify_all();
        }
    }

    /// The fleet whose worker the calling thread is (nullptr on any
    /// other thread); guards run() against same-fleet nesting.
    static inline thread_local const WorkerFleet *current_fleet_ =
        nullptr;

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<Batch *> queue_; // guards: mutex_
    bool stop_ = false;         // guards: mutex_
};

} // namespace emstress

#endif // EMSTRESS_UTIL_WORKER_FLEET_H
