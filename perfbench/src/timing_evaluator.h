/**
 * @file
 * Cloneable timing decorator for ga::FitnessEvaluator: forwards every
 * evaluate() to the wrapped evaluator and records its wall time per
 * evaluator kind, plus a span naming the job, generation and worker.
 * Clones wrap the inner evaluator's clone and share the recorder, so
 * the GA's parallel batches are timed on every worker.
 */

#ifndef PERFBENCH_TIMING_EVALUATOR_H
#define PERFBENCH_TIMING_EVALUATOR_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ga/ga_engine.h"
#include "span_trace.h"

namespace perfbench {

/** Per-kind evaluate() wall times in milliseconds. */
class EvalTimes
{
  public:
    void
    add(const std::string &kind, double ms)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ms_[kind].push_back(ms);
    }

    std::map<std::string, std::vector<double>>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return ms_;
    }

    /**
     * Keep a deterministic sample of the evaluated kernels (those
     * whose hash falls in one residue class), for layer replays.
     */
    void
    sample(const std::string &kind, const emstress::isa::Kernel &kernel)
    {
        if (kernel.hash() % kSampleEvery != 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        kernels_[kind].emplace(kernel.hash(), kernel);
    }

    /** Sampled kernels of a kind, in hash order. */
    std::vector<emstress::isa::Kernel>
    kernels(const std::string &kind, std::size_t limit) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<emstress::isa::Kernel> out;
        const auto it = kernels_.find(kind);
        if (it == kernels_.end())
            return out;
        for (const auto &[hash, kernel] : it->second) {
            if (out.size() == limit)
                break;
            out.push_back(kernel);
        }
        return out;
    }

  private:
    static constexpr std::uint64_t kSampleEvery = 16;

    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> ms_;
    std::map<std::string, std::map<std::uint64_t, emstress::isa::Kernel>>
        kernels_;
};

/** Where an evaluation's span hangs: job, generation and parent. */
struct EvalContext
{
    std::int64_t job = -1;
    /// Generation currently being evaluated (set by the caller that
    /// steps the search).
    std::shared_ptr<std::atomic<std::int64_t>> generation =
        std::make_shared<std::atomic<std::int64_t>>(-1);
    /// Span the evaluation spans nest under (set by the same caller).
    std::shared_ptr<std::atomic<std::uint64_t>> parent =
        std::make_shared<std::atomic<std::uint64_t>>(0);
};

class TimingEvaluator final : public emstress::ga::FitnessEvaluator
{
  public:
    TimingEvaluator(std::unique_ptr<emstress::ga::FitnessEvaluator> inner,
                    std::shared_ptr<EvalTimes> times,
                    SpanRecorder *spans, std::string kind,
                    EvalContext context)
        : inner_(std::move(inner)), times_(std::move(times)),
          spans_(spans), kind_(std::move(kind)),
          context_(std::move(context))
    {}

    double
    evaluate(const emstress::isa::Kernel &kernel,
             emstress::ga::EvalDetail *detail) override
    {
        return timed(kernel,
                     [&] { return inner_->evaluate(kernel, detail); });
    }

    double
    evaluate(const emstress::isa::Kernel &kernel,
             emstress::ga::EvalDetail *detail,
             std::uint32_t attempt) override
    {
        return timed(kernel, [&] {
            return inner_->evaluate(kernel, detail, attempt);
        });
    }

    std::string metricName() const override
    {
        return inner_->metricName();
    }

    std::unique_ptr<emstress::ga::FitnessEvaluator>
    clone() const override
    {
        auto copy = inner_->clone();
        if (!copy)
            return nullptr;
        return std::make_unique<TimingEvaluator>(
            std::move(copy), times_, spans_, kind_, context_);
    }

  private:
    template <typename F>
    double
    timed(const emstress::isa::Kernel &kernel, F &&call)
    {
        times_->sample(kind_, kernel);
        Span span;
        span.name = "core." + kind_ + "_eval";
        span.job = context_.job;
        span.generation = context_.generation->load();
        span.parent = context_.parent->load();
        span.worker = workerIndex();
        span.start_s = nowSeconds();
        const double fitness = call();
        span.end_s = nowSeconds();
        times_->add(kind_, 1e3 * span.duration());
        if (spans_ != nullptr)
            spans_->record(std::move(span));
        return fitness;
    }

    std::unique_ptr<emstress::ga::FitnessEvaluator> inner_;
    std::shared_ptr<EvalTimes> times_;
    SpanRecorder *spans_;
    std::string kind_;
    EvalContext context_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_EVALUATOR_H
