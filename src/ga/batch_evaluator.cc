/**
 * @file
 * Batch evaluator implementation.
 */

#include "ga/batch_evaluator.h"

#include <chrono>
#include <optional>
#include <string>

#include "util/metrics.h"

namespace emstress {
namespace ga {

namespace {

// Wall-time accounting only: eval_seconds/wall_seconds in EvalStats
// are operator-facing timing stats and never feed fitness, ranking,
// or any other replayed result.
using Clock = std::chrono::steady_clock; // lint: timing-stats

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

BatchEvaluator::BatchEvaluator(FitnessEvaluator &base,
                               const BatchConfig &config)
    : base_(base), config_(config),
      threads_(config.fleet != nullptr
                   ? config.fleet->size()
                   : resolveThreadCount(config.threads))
{
    stats_.threads = 1; // raised once workers materialize
}

BatchEvaluator::~BatchEvaluator() = default;

bool
BatchEvaluator::cancelled() const
{
    return config_.cancel
        && config_.cancel->load(std::memory_order_relaxed);
}

const BatchEvaluator::CacheEntry *
BatchEvaluator::lookup(std::uint64_t hash,
                       const isa::Kernel &kernel) const
{
    // Order-independent despite walking a hash bucket: entries are
    // keyed by full kernel equality and a kernel is inserted at most
    // once, so at most one entry can match regardless of the order
    // equal_range yields collisions in.
    const auto [lo, hi] = cache_.equal_range(hash); // lint: ordered-merge
    for (auto it = lo; it != hi; ++it)
        if (it->second.kernel == kernel)
            return &it->second;
    return nullptr;
}

bool
BatchEvaluator::ensureWorkers()
{
    if (clone_failed_)
        return false;
    if (config_.fleet == nullptr && threads_ <= 1)
        return false;
    if (!clones_.empty())
        return true;
    clones_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
        auto c = base_.clone();
        if (!c) {
            // Evaluator cannot run concurrently: degrade to serial.
            clones_.clear();
            clone_failed_ = true;
            return false;
        }
        clones_.push_back(std::move(c));
    }
    if (config_.fleet == nullptr)
        owned_fleet_ = std::make_unique<WorkerFleet>(threads_);
    stats_.threads = std::max(stats_.threads, threads_);
    return true;
}

BatchEvaluator::Outcome
BatchEvaluator::evaluate(const std::vector<isa::Kernel> &kernels,
                         const std::vector<std::size_t> &indices,
                         std::vector<double> &fitness,
                         std::vector<EvalDetail> &details)
{
    Outcome out;
    if (indices.empty())
        return out;

    // Observability only (see util/metrics.h): spans and counters
    // observe the batch, never steer it. Re-emplacing closes the
    // previous phase's span exactly at the phase boundary.
    std::optional<metrics::ScopedPhase> span;
    span.emplace("batch.dispatch");

    // Phase 1 (calling thread, deterministic): split the batch into
    // cache hits and unique fresh work. Duplicates *within* the batch
    // collapse onto the first occurrence.
    struct FreshTask
    {
        std::size_t slot = 0;  ///< Result slot of the 1st occurrence.
        std::uint64_t hash = 0;
        double fitness = 0.0;
        EvalDetail detail;
        double seconds = 0.0;  ///< Wall time of this evaluation.
        std::size_t faults = 0;   ///< FaultErrors hit on this task.
        double fault_lab_s = 0.0; ///< Lab time lost to the faults.
        double backoff_s = 0.0;   ///< Modeled backoff before retries.
        bool failed = false;      ///< Every attempt faulted.
        bool done = false;        ///< Ran to completion (not skipped
                                  ///< by cancellation).
    };
    std::vector<FreshTask> fresh;
    // slot of every duplicate -> index into `fresh` it aliases.
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
    std::unordered_map<std::uint64_t, std::size_t> batch_local;
    fresh.reserve(indices.size());

    for (const std::size_t slot : indices) {
        const isa::Kernel &kernel = kernels[slot];
        const std::uint64_t h = kernel.hash();
        if (config_.memoize) {
            if (const CacheEntry *hit = lookup(h, kernel)) {
                fitness[slot] = hit->fitness;
                details[slot] = hit->detail;
                ++out.cache_hits;
                continue;
            }
            const auto it = batch_local.find(h);
            if (it != batch_local.end()
                && kernels[fresh[it->second].slot] == kernel) {
                aliases.emplace_back(slot, it->second);
                ++out.cache_hits;
                continue;
            }
            batch_local.emplace(h, fresh.size());
        }
        FreshTask task;
        task.slot = slot;
        task.hash = h;
        fresh.push_back(task);
    }

    // Phase 2: run the fresh evaluations — in parallel when the
    // evaluator clones (as one batch on the shared fleet, or on the
    // private one), serially in index order otherwise. Each
    // task writes only its own FreshTask entry (including its fault
    // counters), so the results and accounting are independent of
    // scheduling. FaultErrors are retried under the configured
    // policy; any other exception propagates — it signals a bug, not
    // a flaky lab link. A fired cancel token leaves tasks with
    // done == false; they are excluded from results and accounting
    // in phase 3.
    const RetryPolicy &retry = config_.retry;
    const std::atomic<bool> *cancel_flag =
        config_.cancel ? config_.cancel.get() : nullptr;
    const auto runOne = [&retry, &kernels,
                         cancel_flag](FitnessEvaluator &ev,
                                      FreshTask &task) {
        const auto task_t0 = Clock::now();
        const std::uint32_t max_attempts =
            std::max<std::uint32_t>(1, retry.max_attempts);
        for (std::uint32_t attempt = 0;; ++attempt) {
            // A job cancelled mid-retry stops measuring: the task
            // stays not-done and is dropped from accounting, exactly
            // like a task that never started.
            if (cancel_flag != nullptr
                && cancel_flag->load(std::memory_order_relaxed))
                return;
            try {
                task.detail = EvalDetail{};
                task.fitness = ev.evaluate(kernels[task.slot],
                                           &task.detail, attempt);
                break;
            } catch (const FaultError &err) {
                ++task.faults;
                task.fault_lab_s += err.costSeconds();
                if (attempt + 1 >= max_attempts) {
                    // Permanently failed individual: sentinel score,
                    // no measurement detail.
                    task.detail = EvalDetail{};
                    task.fitness = kFailedFitness;
                    task.failed = true;
                    break;
                }
                task.backoff_s += retry.backoffFor(attempt + 1);
            }
        }
        task.seconds = secondsSince(task_t0);
        task.done = true;
    };
    span.emplace("batch.evaluate");
    const auto t0 = Clock::now();
    // Queue-wait accounting: how long each fresh task sat between
    // batch dispatch and the moment a worker picked it up.
    const double q0 = metrics::monotonicSeconds();
    const bool observe = metrics::enabled();
    const auto instrumentedTask = [this, &fresh, &runOne, q0,
                                   observe](std::size_t i,
                                            std::size_t worker) {
        if (observe) {
            auto &reg = metrics::Registry::instance();
            reg.recordLatency("batch.queue_wait",
                              metrics::monotonicSeconds() - q0);
            reg.add("batch.worker." + std::to_string(worker)
                    + ".tasks");
        }
        metrics::ScopedPhase task_span("batch.eval_task");
        runOne(*clones_[worker], fresh[i]);
    };
    // A shared fleet takes every non-empty batch; a private width
    // runs a single fresh task serially on base_.
    const std::size_t min_parallel = config_.fleet != nullptr ? 1 : 2;
    if (fresh.size() >= min_parallel && ensureWorkers()) {
        WorkerFleet &fleet = config_.fleet != nullptr ? *config_.fleet
                                                      : *owned_fleet_;
        fleet.run(fresh.size(), instrumentedTask, cancel_flag);
    } else {
        for (FreshTask &task : fresh) {
            if (cancel_flag != nullptr
                && cancel_flag->load(std::memory_order_relaxed))
                break;
            if (observe) {
                auto &reg = metrics::Registry::instance();
                reg.recordLatency("batch.queue_wait",
                                  metrics::monotonicSeconds() - q0);
                reg.add("batch.worker.serial.tasks");
            }
            metrics::ScopedPhase task_span("batch.eval_task");
            runOne(base_, task);
        }
    }
    const double wall = secondsSince(t0);

    // Phase 3 (calling thread, index order): publish results, resolve
    // duplicates, and fill the cache. Tasks skipped by cancellation
    // contribute nothing: no slot write, no cache entry, no fault or
    // failure accounting — only the Outcome::cancelled count.
    span.emplace("batch.merge");
    for (const FreshTask &task : fresh) {
        if (!task.done) {
            ++out.cancelled;
            continue;
        }
        fitness[task.slot] = task.fitness;
        details[task.slot] = task.detail;
        out.lab_seconds += task.detail.measurement_seconds
            + task.fault_lab_s + task.backoff_s;
        stats_.eval_seconds += task.seconds;
        stats_.samples_materialized += task.detail.samples_materialized;
        stats_.faults_injected += task.faults;
        stats_.fault_backoff_seconds += task.backoff_s;
        if (task.failed) {
            ++stats_.permanent_failures;
            stats_.retries += task.faults - 1;
        } else {
            stats_.retries += task.faults;
        }
        // Failed results memoize too: the schedule is pure in
        // (kernel, attempt), so re-presenting the genome would fault
        // identically — a cache hit loses nothing.
        if (config_.memoize) {
            cache_.emplace(task.hash,
                           CacheEntry{kernels[task.slot], task.fitness,
                                      task.detail});
        }
        ++out.fresh;
    }
    for (const auto &[slot, fresh_i] : aliases) {
        if (!fresh[fresh_i].done)
            continue;
        fitness[slot] = fresh[fresh_i].fitness;
        details[slot] = fresh[fresh_i].detail;
    }

    stats_.evals += out.fresh;
    stats_.cache_hits += out.cache_hits;
    stats_.tasks_cancelled += out.cancelled;
    stats_.wall_seconds += wall;
    if (observe) {
        auto &reg = metrics::Registry::instance();
        reg.add("batch.fresh_evals", out.fresh);
        reg.add("batch.cache_hits", out.cache_hits);
        if (out.cancelled > 0)
            reg.add("batch.tasks_cancelled", out.cancelled);
    }
    return out;
}

std::size_t
BatchEvaluator::plannedThreads() const
{
    if (clone_failed_)
        return 1;
    if (config_.fleet != nullptr)
        return config_.fleet->size();
    if (threads_ <= 1)
        return 1;
    return threads_;
}

} // namespace ga
} // namespace emstress
