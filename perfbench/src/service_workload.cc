/**
 * @file
 * service_mix: a closed loop over service::SearchService with real
 * platform evaluators. One generator thread keeps a fixed number of
 * searched jobs in flight for four weighted tenants, submits content
 * duplicates of finished jobs beside them, and afterwards rebuilds the
 * service over its spill directory to serve duplicates from disk.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "job_mix.h"
#include "layers.h"
#include "service/artifact_store.h"
#include "service/scheduler.h"
#include "service/wire.h"
#include "span_trace.h"
#include "stats.h"
#include "timing_evaluator.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace em = emstress;
namespace svc = emstress::service;

namespace {

/// Evaluation workers shared by every job (ServiceConfig).
constexpr std::size_t kFleetThreads = 2;
/// Scheduler threads stepping jobs (ServiceConfig).
constexpr std::size_t kRunners = 2;
/// Searched jobs the generator keeps in flight.
constexpr std::size_t kInFlight = 6;
/// Duplicates resubmitted after the restart.
constexpr std::size_t kRestartDuplicates = 40;
/// Finished specs re-run directly through GaEngine.
constexpr std::size_t kDirectChecks = 4;
/// Finished results the traced run's codec/store replays use.
constexpr std::size_t kStoreReplays = 24;
/// Equal slices of the loop window; the rates are their medians.
constexpr std::size_t kRateSlices = 6;

/** What the loop observed about one position of the sequence. */
struct JobRecord
{
    MixEntry entry;
    svc::JobId id = 0;
    double submit_s = 0.0;
    double start_s = -1.0; ///< kStarted seen (searched jobs).
    double end_s = -1.0;   ///< Terminal event seen.
    /// Generation report intervals [ms], the first from kStarted.
    std::vector<double> generation_ms;
    svc::JobState state = svc::JobState::kQueued;
    std::shared_ptr<const svc::JobResult> result;
    std::uint64_t span = 0; ///< Job span id (traced pass).
    EvalContext context;    ///< Evaluation span context (traced).
};

/** Traced-pass instrumentation shared with the evaluator factory. */
struct Tracing
{
    SpanRecorder spans;
    std::shared_ptr<EvalTimes> evals = std::make_shared<EvalTimes>();
    std::mutex mutex;
    std::map<std::uint64_t, JobRecord *> by_fingerprint;
    std::vector<double> evaluator_setup_ms;
};

svc::ServiceConfig
serviceConfig(const std::filesystem::path &spill_dir, Tracing *tracing)
{
    svc::ServiceConfig config;
    config.fleet_threads = kFleetThreads;
    config.runners = kRunners;
    config.max_jobs_in_flight = 4 * kInFlight;
    config.max_jobs_per_tenant = 4 * kInFlight;
    for (const TenantPlan &t : kTenants)
        config.tenant_weights[t.name] = t.weight;
    config.artifacts.spill_dir = spill_dir.string();
    if (tracing == nullptr) {
        config.evaluator_factory = &svc::makePlatformEvaluator;
        return config;
    }
    config.evaluator_factory = [tracing](const svc::JobSpec &spec) {
        const double t0 = nowSeconds();
        auto inner = svc::makePlatformEvaluator(spec);
        const double t1 = nowSeconds();
        std::lock_guard<std::mutex> lock(tracing->mutex);
        JobRecord &rec = *tracing->by_fingerprint.at(
            svc::jobFingerprint(spec));
        tracing->evaluator_setup_ms.push_back(1e3 * (t1 - t0));
        Span span;
        span.name = "service.evaluator_setup";
        span.parent = rec.span;
        span.job = static_cast<std::int64_t>(rec.entry.index);
        span.worker = workerIndex();
        span.start_s = t0;
        span.end_s = t1;
        tracing->spans.record(std::move(span));
        return std::unique_ptr<em::ga::FitnessEvaluator>(
            std::make_unique<TimingEvaluator>(
                std::move(inner), tracing->evals, &tracing->spans,
                jobKindName(rec.entry.kind), rec.context));
    };
    return config;
}

/** encodeJobResult bytes with the served-from-store flag cleared. */
std::vector<std::uint8_t>
encodedBytes(const svc::JobResult &result, svc::PlatformPreset preset)
{
    svc::JobResult copy = result;
    copy.from_artifact_store = false;
    svc::WireWriter w;
    svc::encodeJobResult(w, copy, svc::presetPool(preset));
    return w.bytes();
}

/**
 * The closed loop: the calling thread generates, kInFlight waiter
 * threads follow each searched job's event stream.
 */
class ClosedLoop
{
  public:
    ClosedLoop(svc::SearchService &service, const JobMix &mix,
               Tracing *tracing)
        : service_(service), mix_(mix), tracing_(tracing)
    {
        for (std::size_t w = 0; w < kInFlight; ++w)
            waiters_.emplace_back([this] { waiterLoop(); });
    }

    ClosedLoop(const ClosedLoop &) = delete;
    ClosedLoop &operator=(const ClosedLoop &) = delete;

    ~ClosedLoop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : waiters_)
            t.join();
    }

    /**
     * Generate until `seconds` have passed and at least the given
     * numbers of searched and interactive jobs were submitted, then
     * drain. Returns the window length (loop start to last submit).
     */
    double
    run(double seconds, std::size_t min_searched,
        std::size_t min_interactive)
    {
        const double loop0 = nowSeconds();
        std::size_t searched = 0;
        std::size_t interactive = 0;
        for (std::size_t i = 0;; ++i) {
            if (nowSeconds() - loop0 >= seconds
                && searched >= min_searched
                && interactive >= min_interactive)
                break;
            MixEntry entry = mix_.entry(i);
            std::unique_lock<std::mutex> lock(mutex_);
            records_.push_back(JobRecord{});
            JobRecord &rec = records_.back();
            rec.entry = std::move(entry);
            if (rec.entry.duplicate) {
                const JobRecord &orig = records_[rec.entry.original];
                cv_.wait(lock, [&] { return orig.end_s >= 0.0; });
                lock.unlock();
                serveDuplicate(rec);
                continue;
            }
            cv_.wait(lock, [&] { return in_flight_ < kInFlight; });
            ++in_flight_;
            if (tracing_ != nullptr) {
                rec.span = tracing_->spans.reserveId();
                rec.context.job =
                    static_cast<std::int64_t>(rec.entry.index);
                rec.context.parent->store(rec.span);
                std::lock_guard<std::mutex> tl(tracing_->mutex);
                tracing_->by_fingerprint[rec.entry.fingerprint] = &rec;
            }
            ++searched;
            if (rec.entry.spec.job_class
                == svc::JobClass::kInteractive)
                ++interactive;
            lock.unlock();
            const double t = nowSeconds();
            const svc::Submission sub = service_.submit(rec.entry.spec);
            lock.lock();
            rec.submit_s = t;
            rec.id = sub.id;
            if (!sub.accepted) {
                rec.state = svc::JobState::kFailed;
                rec.end_s = nowSeconds();
                --in_flight_;
                continue;
            }
            pending_.push_back(&rec);
            cv_.notify_all();
        }
        const double window = nowSeconds() - loop0;
        window_end_ = loop0 + window;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return in_flight_ == 0; });
        return window;
    }

    /** Records in sequence order (valid after run()). */
    const std::deque<JobRecord> &records() const { return records_; }

    double windowEnd() const { return window_end_; }

  private:
    void
    serveDuplicate(JobRecord &rec)
    {
        const double t = nowSeconds();
        const svc::Submission sub = service_.submit(rec.entry.spec);
        svc::JobState state = svc::JobState::kFailed;
        if (sub.accepted)
            state = service_.waitTerminal(sub.id);
        const double end = nowSeconds();
        std::lock_guard<std::mutex> lock(mutex_);
        rec.id = sub.id;
        rec.submit_s = t;
        rec.end_s = end;
        rec.state = state;
        if (sub.accepted)
            rec.result = service_.result(sub.id);
    }

    void
    waiterLoop()
    {
        for (;;) {
            JobRecord *rec = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [&] { return stop_ || !pending_.empty(); });
                if (pending_.empty())
                    return;
                rec = pending_.front();
                pending_.pop_front();
            }
            follow(*rec);
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            cv_.notify_all();
        }
    }

    /** Follow one job's events to its terminal one. */
    void
    follow(JobRecord &rec)
    {
        try {
            followEvents(rec);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: job %zu: %s\n",
                         rec.entry.index, e.what());
            std::lock_guard<std::mutex> lock(mutex_);
            rec.state = svc::JobState::kFailed;
            rec.end_s = nowSeconds();
        }
    }

    void
    followEvents(JobRecord &rec)
    {
        double start = -1.0;
        double last = -1.0;
        std::vector<double> generation_ms;
        for (;;) {
            const svc::JobEvent ev = service_.waitEvent(rec.id);
            const double t = nowSeconds();
            if (ev.type == svc::JobEventType::kStarted) {
                start = t;
                last = t;
                continue;
            }
            if (ev.type == svc::JobEventType::kProgress) {
                rec.context.generation->store(static_cast<std::int64_t>(
                    ev.progress.generations_done));
                if (last >= 0.0)
                    generation_ms.push_back(1e3 * (t - last));
                last = t;
                continue;
            }
            if (ev.type == svc::JobEventType::kAccepted)
                continue;
            std::lock_guard<std::mutex> lock(mutex_);
            rec.start_s = start;
            rec.end_s = t;
            rec.generation_ms = std::move(generation_ms);
            rec.state = service_.status(rec.id).state;
            rec.result = ev.result;
            break;
        }
        if (tracing_ == nullptr)
            return;
        const auto job = static_cast<std::int64_t>(rec.entry.index);
        Span span;
        span.id = rec.span;
        span.name = "service.job";
        span.job = job;
        span.start_s = rec.submit_s;
        span.end_s = rec.end_s;
        tracing_->spans.record(span);
        if (rec.start_s >= 0.0) {
            Span wait;
            wait.name = "service.queue_wait";
            wait.parent = rec.span;
            wait.job = job;
            wait.start_s = rec.submit_s;
            wait.end_s = rec.start_s;
            tracing_->spans.record(wait);
        }
    }

    svc::SearchService &service_;
    const JobMix &mix_;
    Tracing *tracing_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<JobRecord> records_;  // guarded by mutex_
    std::deque<JobRecord *> pending_; // guarded by mutex_
    std::size_t in_flight_ = 0;      // guarded by mutex_
    bool stop_ = false;              // guarded by mutex_
    double window_end_ = 0.0;
    std::vector<std::thread> waiters_;
};

/** End-to-end figures of one loop. */
struct LoopFigures
{
    EndToEnd e2e; ///< Over the searched jobs finished in the window.
    std::vector<double> latency_s;     ///< Submit to terminal.
    std::vector<double> interactive_s; ///< The same, kInteractive.
    std::vector<double> wait_s;        ///< Submit to kStarted.
};

/** Checks on a finished loop; returns its end-to-end figures. */
LoopFigures
checkLoop(const ClosedLoop &loop, double window, Report &report)
{
    LoopFigures fig;
    const double slice_s = window / static_cast<double>(kRateSlices);
    const double window_start = loop.windowEnd() - window;
    std::vector<double> jobs(kRateSlices, 0.0);
    std::vector<double> evals(kRateSlices, 0.0);
    for (const JobRecord &rec : loop.records()) {
        const MixEntry &e = rec.entry;
        if (e.duplicate) {
            const JobRecord &orig = loop.records()[e.original];
            const bool ok = rec.state == svc::JobState::kCompleted
                && rec.result && rec.result->from_artifact_store
                && orig.result
                && encodedBytes(*rec.result, e.spec.platform)
                    == encodedBytes(*orig.result, e.spec.platform);
            report.check(ok, "duplicate " + std::to_string(e.index)
                                 + " served byte-identically from "
                                   "the artifact store");
            continue;
        }
        const bool done = rec.state == svc::JobState::kCompleted
            && rec.result && !rec.result->from_artifact_store;
        report.check(done, "searched job " + std::to_string(e.index)
                               + " (" + jobKindName(e.kind)
                               + ") completed");
        if (!done)
            continue;
        report.succeeded(rec.result->ga.eval_stats.evals);
        const double latency = rec.end_s - rec.submit_s;
        fig.latency_s.push_back(latency);
        if (e.spec.job_class == svc::JobClass::kInteractive)
            fig.interactive_s.push_back(latency);
        if (rec.start_s >= 0.0)
            fig.wait_s.push_back(rec.start_s - rec.submit_s);
        if (rec.end_s > loop.windowEnd())
            continue; // finished while the loop drained
        const std::size_t slice =
            std::min(kRateSlices - 1,
                     static_cast<std::size_t>(
                         (rec.end_s - window_start) / slice_s));
        jobs[slice] += 1.0;
        evals[slice] +=
            static_cast<double>(rec.result->ga.eval_stats.evals);
        ++fig.e2e.searches;
        fig.e2e.evals += rec.result->ga.eval_stats.evals;
        fig.e2e.generation_ms.insert(fig.e2e.generation_ms.end(),
                                     rec.generation_ms.begin(),
                                     rec.generation_ms.end());
    }
    std::printf("jobs/s by slice of %.2f s:", slice_s);
    for (const double n : jobs)
        std::printf(" %.2f", n / slice_s);
    std::printf("\n");
    // Medians over the slices: a host stall of a few seconds moves
    // neither rate.
    fig.e2e.searches_per_s = median(jobs) / slice_s;
    fig.e2e.evals_per_s = median(evals) / slice_s;
    return fig;
}

/** The first n searched jobs of the sequence that finished. */
std::vector<const JobRecord *>
firstFinished(const ClosedLoop &loop, std::size_t n)
{
    std::vector<const JobRecord *> out;
    for (const JobRecord &rec : loop.records())
        if (out.size() < n && !rec.entry.duplicate && rec.result)
            out.push_back(&rec);
    return out;
}

/** Re-run the first finished spec of each kind directly. */
void
checkDirectRuns(const ClosedLoop &loop, Report &report)
{
    std::vector<JobKind> done;
    for (const JobRecord &rec : loop.records()) {
        if (done.size() == kDirectChecks)
            break;
        const MixEntry &e = rec.entry;
        if (e.duplicate || !rec.result
            || std::find(done.begin(), done.end(), e.kind) != done.end())
            continue;
        done.push_back(e.kind);
        auto evaluator = svc::makePlatformEvaluator(e.spec);
        em::ga::GaEngine engine(svc::presetPool(e.spec.platform),
                                e.spec.ga);
        const em::ga::GaResult direct = engine.run(*evaluator);
        report.check(sameSearch(rec.result->ga, direct,
                                svc::presetPool(e.spec.platform)),
                     std::string("service result of a ")
                         + jobKindName(e.kind)
                         + " job is bit-identical to a direct "
                           "GaEngine run");
    }
}

/**
 * Rebuild the service over the spill dir and resubmit duplicates of
 * the first finished specs; returns the rebuild-to-last-served time.
 */
double
restartRound(const svc::ServiceConfig &config, const ClosedLoop &loop,
             Report &report)
{
    const std::vector<const JobRecord *> resubmit =
        firstFinished(loop, kRestartDuplicates);
    std::vector<std::shared_ptr<const svc::JobResult>> served;
    const double t0 = nowSeconds();
    auto service = std::make_unique<svc::SearchService>(config);
    for (const JobRecord *orig : resubmit) {
        const svc::Submission sub = service->submit(orig->entry.spec);
        if (sub.accepted
            && service->waitTerminal(sub.id)
                == svc::JobState::kCompleted)
            served.push_back(service->result(sub.id));
        else
            served.push_back(nullptr);
    }
    const double restart_s = nowSeconds() - t0;
    const auto stats = service->artifacts().stats();
    report.check(stats.disk_hits == resubmit.size()
                     && stats.spill_quarantined == 0,
                 "restart served every duplicate from the disk tier");
    for (std::size_t k = 0; k < resubmit.size(); ++k) {
        const JobRecord &orig = *resubmit[k];
        const svc::PlatformPreset preset = orig.entry.spec.platform;
        report.check(served[k] && served[k]->from_artifact_store
                         && encodedBytes(*served[k], preset)
                             == encodedBytes(*orig.result, preset),
                     "disk-served duplicate is byte-identical");
    }
    return restart_s;
}

/** Set-up: preset configs and pools, one evaluator per kind, service. */
struct ServiceSetup
{
    std::filesystem::path spill_dir;
    JobMix mix;
    svc::ServiceConfig config;
    std::unique_ptr<svc::SearchService> service;

    ServiceSetup(const RunArgs &args, const std::string &tag,
                 Tracing *tracing)
        : spill_dir(std::filesystem::path(args.out_dir)
                    / ("spill." + tag + "." + std::to_string(args.seed))),
          mix(args.seed)
    {
        std::filesystem::remove_all(spill_dir);
        for (std::size_t k = 0; k < kJobKinds; ++k)
            svc::makePlatformEvaluator(
                smallJobSpec(static_cast<JobKind>(k), 1));
        config = serviceConfig(spill_dir, tracing);
        service = std::make_unique<svc::SearchService>(config);
    }

    ServiceSetup(const ServiceSetup &) = delete;
    ServiceSetup &operator=(const ServiceSetup &) = delete;

    ~ServiceSetup()
    {
        service.reset();
        std::error_code ec;
        std::filesystem::remove_all(spill_dir, ec);
    }
};

/** Print a latency percentile of the loop (a readable figure). */
void
printLatency(const char *name, const std::vector<double> &samples,
             double q)
{
    if (const auto p = exactPercentile(samples, q))
        printFigure(name, p->value, "s", p->n);
}

/**
 * Layer, GA and codec replays for the traced run. The per-layer
 * metrics go into `figures`; the service's own layers, which only
 * this workload has, are printed as readable figures.
 */
void
serviceReplays(const RunArgs &args, const ClosedLoop &loop,
               Tracing &tr, LayerFigures &figures)
{
    LayerTimes &t = figures.calls;
    ScopedSpan root(&tr.spans, "layers.replay");
    const auto time = [&](const char *name, auto &&call) {
        timeCall(name, t, &tr.spans, root.id(), call);
    };

    replayPlatformConfig(8, t, &tr.spans, root.id());

    const std::vector<const JobRecord *> finished =
        firstFinished(loop, kStoreReplays);

    // The GA layer on finished specs: driver set-up, then every step.
    for (std::size_t k = 0; k < 8 && k < finished.size(); ++k) {
        const svc::JobSpec &spec = finished[k]->entry.spec;
        auto evaluator = svc::makePlatformEvaluator(spec);
        std::optional<em::ga::GaDriver> driver;
        time("ga.driver_setup_ms", [&] {
            driver.emplace(svc::presetPool(spec.platform), spec.ga,
                           *evaluator);
        });
        while (!driver->done())
            time("ga.generation_ms", [&] { driver->step(); });
    }

    // Chain replays on sampled A72 EM kernels with the jobs' settings.
    const svc::JobSpec a72 = smallJobSpec(JobKind::kA72Em, 1);
    em::platform::Platform plat(svc::presetConfig(a72.platform),
                                a72.platform_seed);
    for (const auto &kernel : tr.evals->kernels("a72_em", 16))
        replayLayers(plat, a72.eval, kernel,
                     kCoreChain | kEmChain | kScopeChain, t, &tr.spans,
                     root.id());

    // Codec and store replays on finished results.
    const std::filesystem::path dir =
        std::filesystem::path(args.out_dir)
        / ("store." + std::to_string(args.seed));
    std::filesystem::remove_all(dir);
    {
        svc::ArtifactStore store({0, dir.string()});
        for (const JobRecord *rec : finished) {
            const svc::PlatformPreset preset = rec->entry.spec.platform;
            std::vector<std::uint8_t> bytes;
            time("service.encode_ms", [&] {
                svc::WireWriter w;
                svc::encodeJobResult(w, *rec->result,
                                     svc::presetPool(preset));
                bytes = w.bytes();
            });
            time("service.decode_ms", [&] {
                svc::WireReader r(bytes);
                svc::decodeJobResult(r, svc::presetPool(preset));
            });
            time("service.store_insert_ms", [&] {
                store.insert(rec->entry.fingerprint, rec->result,
                             preset);
            });
        }
    }
    for (std::size_t k = 0; k < 8 && k < finished.size(); ++k) {
        std::optional<svc::ArtifactStore> store;
        time("service.store_scan_ms",
             [&] { store.emplace(svc::ArtifactStore::Config{0, dir.string()}); });
        time("service.disk_fetch_ms",
             [&] { store->fetch(finished[k]->entry.fingerprint); });
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    auto evals = tr.evals->snapshot();
    for (const auto &[kind, ms] : evals) {
        figures.eval_ms.insert(figures.eval_ms.end(), ms.begin(),
                               ms.end());
        printFigure("core." + kind + "_eval_ms", median(ms), "ms",
                    ms.size());
    }
    figures.main_eval_ms = evals["a72_em"];
    figures.main_is_em = true;
    for (const char *name :
         {"service.encode_ms", "service.decode_ms",
          "service.store_insert_ms", "service.store_scan_ms",
          "service.disk_fetch_ms"})
        printFigure(name, median(t[name]), "ms", t[name].size());
    printFigure("service.evaluator_setup_ms",
                median(tr.evaluator_setup_ms), "ms",
                tr.evaluator_setup_ms.size());
}

void
printLoop(const char *label, const LoopFigures &f)
{
    std::printf("%s: %zu searched jobs (%zu interactive), %zu in the "
                "window, %.3f jobs/s, %.1f evals/s, median latency "
                "%.3f s\n",
                label, f.latency_s.size(), f.interactive_s.size(),
                f.e2e.searches, f.e2e.searches_per_s, f.e2e.evals_per_s,
                median(f.latency_s));
    std::vector<double> sorted = f.latency_s;
    std::sort(sorted.begin(), sorted.end());
    std::printf("%s latency by decile [s]:", label);
    for (std::size_t d = 1; d < 10 && !sorted.empty(); ++d)
        std::printf(" %.3f", sorted[d * sorted.size() / 10]);
    std::printf("\n");
}

/** One loop of `seconds`, long enough for every percentile. */
LoopFigures
runLoop(ServiceSetup &setup, Tracing *tracing, double seconds,
        std::unique_ptr<ClosedLoop> &loop, Report &report)
{
    loop = std::make_unique<ClosedLoop>(*setup.service, setup.mix,
                                        tracing);
    const double window = loop->run(seconds, samplesNeeded(0.95),
                                    samplesNeeded(0.50));
    return checkLoop(*loop, window, report);
}

/**
 * Traced run: half-length loops untraced, traced, untraced again (the
 * overhead is taken against the mean of the untraced two, which
 * cancels drift and warm-up), then the replays.
 */
void
tracedService(const RunArgs &args, Report &report)
{
    const double half = args.seconds / 2;
    const auto untraced = [&] {
        ServiceSetup setup(args, "untraced", nullptr);
        std::unique_ptr<ClosedLoop> loop;
        return runLoop(setup, nullptr, half, loop, report);
    };
    const LoopFigures plain_before = untraced();

    Tracing tr;
    LayerFigures figures;
    em::metrics::setEnabled(true);
    figures.before = em::metrics::Registry::instance().snapshot();
    ServiceSetup setup(args, "traced", &tr);
    std::unique_ptr<ClosedLoop> loop;
    const LoopFigures traced = runLoop(setup, &tr, half, loop, report);
    setup.service.reset();
    figures.after = em::metrics::Registry::instance().snapshot();
    em::metrics::setEnabled(false);
    for (const JobRecord &rec : loop->records())
        if (!rec.entry.duplicate && rec.result)
            figures.addSearch(rec.result->ga.eval_stats);

    const LoopFigures plain_after = untraced();
    serviceReplays(args, *loop, tr, figures);
    reportLayers(report, figures);
    printFigure("service.queue_wait_ms", 1e3 * median(traced.wait_s),
                "ms", traced.wait_s.size());
    for (const char *name :
         {"service.store.spill_writes", "instruments.sa.band_evals"})
        printFigure(name,
                    counterGrowth(figures.before, figures.after, name),
                    "count", 1);

    writeTraceArtifacts(args, tr.spans);
    printLoop("untraced (before)", plain_before);
    printLoop("traced", traced);
    printLoop("untraced (after)", plain_after);
    const auto mean = [](double a, double b) { return 0.5 * (a + b); };
    printOverhead("searches_per_s", traced.e2e.searches_per_s,
                  mean(plain_before.e2e.searches_per_s,
                       plain_after.e2e.searches_per_s),
                  "1/s");
    printOverhead("evals_per_s", traced.e2e.evals_per_s,
                  mean(plain_before.e2e.evals_per_s,
                       plain_after.e2e.evals_per_s),
                  "1/s");
    for (const double q : kGenerationQuantiles) {
        const auto t = exactPercentile(traced.e2e.generation_ms, q);
        const auto u0 = exactPercentile(plain_before.e2e.generation_ms, q);
        const auto u1 = exactPercentile(plain_after.e2e.generation_ms, q);
        const std::string name =
            "generation_p" + std::to_string(std::lround(100 * q)) + "_ms";
        if (t && u0 && u1)
            printOverhead(name.c_str(), t->value,
                          mean(u0->value, u1->value), "ms");
    }
}

} // namespace

void
runServiceWorkload(const RunArgs &args, Report &report)
{
    em::metrics::setEnabled(false);
    if (args.trace) {
        tracedService(args, report);
        return;
    }
    ServiceSetup setup(args, "run", nullptr);
    report.metric("setup_s", nowSeconds() - args.start_s, "s");
    if (args.setup_only)
        return;

    std::unique_ptr<ClosedLoop> loop;
    const LoopFigures fig =
        runLoop(setup, nullptr, args.seconds, loop, report);
    printLoop("loop", fig);
    setup.service.reset();
    const double t0 = nowSeconds();
    checkDirectRuns(*loop, report);
    const double t1 = nowSeconds();
    const double restart_s =
        restartRound(setup.config, *loop, report);
    std::printf("direct re-runs %.2f s\n", t1 - t0);
    printLatency("job_latency_p50_s", fig.latency_s, 0.50);
    printLatency("job_latency_p95_s", fig.latency_s, 0.95);
    printLatency("interactive_latency_p50_s", fig.interactive_s, 0.50);
    printFigure("restart_s", restart_s, "s", 1);
    reportEndToEnd(report, fig.e2e);
}

} // namespace perfbench
