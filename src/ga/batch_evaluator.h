/**
 * @file
 * Parallel, memoized batch fitness evaluation — the measurement
 * pipeline behind the GA engine and any other consumer that scores
 * many kernels (Section 3.1(b) is where essentially all of the
 * paper's lab time goes, so this is the hot path of the whole
 * reproduction).
 *
 * Guarantees, in order of importance:
 *  1. Determinism: for order-independent evaluators the results are
 *     bit-identical to evaluating the batch serially in index order,
 *     for any thread count. Cache lookups and duplicate grouping are
 *     decided on the calling thread before dispatch, every fresh
 *     evaluation writes only its own result slot, and the cache is
 *     updated after the batch completes in index order.
 *  2. No redundant simulation: a genome evaluated once (this batch
 *     or any earlier one) is never evaluated again while memoization
 *     is on. Keys are Kernel::hash() with full structural equality
 *     verification, so a hash collision degrades to a redundant
 *     evaluation, never a wrong fitness.
 *  3. Parallelism: fresh evaluations fan out as one WorkerFleet
 *     batch — on a private fleet, or in service mode on a shared one
 *     multiplexing tasks from many concurrent jobs; either way each
 *     worker uses its own FitnessEvaluator clone. Evaluators that
 *     cannot clone degrade to serial evaluation.
 *  4. Fault tolerance: an evaluation that throws FaultError (an
 *     injected or real lab-link fault) is retried with bounded
 *     modeled backoff; an individual whose every attempt faults is
 *     scored kFailedFitness rather than poisoning the batch. Fault
 *     schedules are pure in (point, kernel, attempt), so guarantee 1
 *     holds with faults enabled — and once retries succeed, results
 *     are bit-identical to a fault-free run.
 *  5. Cancellation drains, never poisons: a batch whose CancelToken
 *     fires stops issuing fresh evaluations; the skipped tasks are
 *     reported in Outcome::cancelled but are neither scored
 *     kFailedFitness, nor counted as faults or permanent failures,
 *     nor written to the fitness cache — so a cancelled job can
 *     never contaminate sentinel accounting or memoized results
 *     observed by other jobs sharing the fleet.
 */

#ifndef EMSTRESS_GA_BATCH_EVALUATOR_H
#define EMSTRESS_GA_BATCH_EVALUATOR_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ga/ga_engine.h"
#include "isa/kernel.h"
#include "util/cancellation.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace ga {

/** Batch-evaluation configuration. */
struct BatchConfig
{
    /// Worker threads: 1 = serial reference path, 0 = auto
    /// (EMSTRESS_THREADS environment variable, else hardware
    /// concurrency). Ignored when `fleet` is set (the fleet's worker
    /// count applies).
    std::size_t threads = 1;
    /// Keep a genome-keyed fitness cache across batches.
    bool memoize = true;
    /// Retry policy for evaluations that throw FaultError: a faulted
    /// attempt is retried (with modeled backoff charged to the lab
    /// clock) up to max_attempts total tries; on exhaustion the
    /// individual is scored kFailedFitness instead of aborting the
    /// batch. Because fault schedules are pure functions of (fault
    /// point, kernel, attempt), the retry path preserves the
    /// batch evaluator's bit-identical-across-thread-counts
    /// guarantee.
    RetryPolicy retry;
    /// Shared worker fleet (service mode): fresh evaluations are
    /// submitted as one fleet batch, interleaving with other jobs'
    /// tasks, instead of running on a private fleet. Not owned; must
    /// outlive the evaluator.
    WorkerFleet *fleet = nullptr;
    /// Cooperative cancellation: once the token reads true, fresh
    /// evaluations not yet started are skipped (see guarantee 5).
    CancelToken cancel;
};

/**
 * Evaluates batches of kernels through one underlying evaluator,
 * concurrently and without re-simulating known genomes.
 */
class BatchEvaluator
{
  public:
    /** Per-batch outcome (cumulative counters live in stats()). */
    struct Outcome
    {
        std::size_t fresh = 0;       ///< Evaluator calls performed.
        std::size_t cache_hits = 0;  ///< Slots served from cache or
                                     ///< batch-local deduplication.
        std::size_t cancelled = 0;   ///< Fresh tasks skipped because
                                     ///< the cancel token fired; their
                                     ///< slots are left untouched.
        double lab_seconds = 0.0;    ///< Modeled lab time of the
                                     ///< fresh measurements, faulted
                                     ///< attempts and retry backoff.
    };

    /**
     * @param base   Evaluator that defines fitness. Must outlive the
     *               batch evaluator. Used directly for serial
     *               evaluation; clone() supplies the workers.
     * @param config Thread count, memoization switch, optional
     *               shared fleet and cancel token.
     */
    BatchEvaluator(FitnessEvaluator &base, const BatchConfig &config);

    ~BatchEvaluator();

    /**
     * Evaluate kernels[i] for every i in `indices`, writing
     * fitness[i] and details[i]. Slots not listed in `indices` are
     * untouched. Returns the per-batch outcome. When the configured
     * cancel token fires, pending fresh tasks are skipped and
     * reported in Outcome::cancelled (their slots untouched, nothing
     * cached or charged for them).
     */
    Outcome evaluate(const std::vector<isa::Kernel> &kernels,
                     const std::vector<std::size_t> &indices,
                     std::vector<double> &fitness,
                     std::vector<EvalDetail> &details);

    /** Cumulative counters over every batch so far. */
    const EvalStats &stats() const { return stats_; }

    /** True once the configured cancel token has fired. */
    bool cancelled() const;

    /** Worker threads the evaluator actually uses (after clone
     * availability is taken into account; lazily resolved on the
     * first parallel batch). */
    std::size_t plannedThreads() const;

    /** Entries currently memoized. */
    std::size_t cacheSize() const { return cache_.size(); }

  private:
    struct CacheEntry
    {
        isa::Kernel kernel; ///< For collision-proof equality checks.
        double fitness = 0.0;
        EvalDetail detail;
    };

    /** Find a memoized result for a kernel; nullptr when absent. */
    const CacheEntry *lookup(std::uint64_t hash,
                             const isa::Kernel &kernel) const;

    /** Lazily build the workers + clones; false -> serial fallback. */
    bool ensureWorkers();

    FitnessEvaluator &base_;
    BatchConfig config_;
    std::size_t threads_; ///< Resolved request (>= 1).
    bool clone_failed_ = false;
    std::vector<std::unique_ptr<FitnessEvaluator>> clones_;
    /// Private fleet, built lazily when `config_.fleet` is null and
    /// more than one thread is resolved.
    std::unique_ptr<WorkerFleet> owned_fleet_;
    std::unordered_multimap<std::uint64_t, CacheEntry> cache_;
    EvalStats stats_;
};

} // namespace ga
} // namespace emstress

#endif // EMSTRESS_GA_BATCH_EVALUATOR_H
