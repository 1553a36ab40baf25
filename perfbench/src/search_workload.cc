/**
 * @file
 * em_search and droop_search: the Fig. 7 quick-budget GA on the
 * Cortex-A72, driven by EM amplitude (spectrum analyzer) or by max
 * droop (OC-DSO scope), with two evaluation threads.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <utility>

#include "core/fitness.h"
#include "core/virus_generator.h"
#include "job_mix.h"
#include "layers.h"
#include "pdn/resonance.h"
#include "span_trace.h"
#include "stats.h"
#include "timing_evaluator.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace em = emstress;

namespace {

/// Evaluation threads of every search (GaConfig::threads).
constexpr std::size_t kSearchThreads = 2;
/// Platform noise seed (the Fig. 7 bench's).
constexpr std::uint64_t kPlatformSeed = 7;
/// Kernels the traced run replays layer by layer.
constexpr std::size_t kReplayKernels = 24;

/** The Fig. 7 quick search budget with a given GA seed. */
em::core::VirusSearchConfig
searchConfig(bool em_metric, std::uint64_t ga_seed)
{
    em::core::VirusSearchConfig cfg;
    cfg.metric = em_metric ? em::core::VirusMetric::EmAmplitude
                           : em::core::VirusMetric::MaxDroop;
    cfg.ga.population = 32;
    cfg.ga.generations = 30;
    cfg.ga.restarts = 2;
    cfg.ga.kernel_length = 50;
    cfg.ga.seed = ga_seed;
    cfg.ga.threads = kSearchThreads;
    cfg.eval.duration_s = 4e-6;
    cfg.eval.sa_samples = 8;
    return cfg;
}

/** GA seed of the k-th search of a run. */
std::uint64_t
gaSeed(std::uint64_t seed, std::size_t k)
{
    return splitMix64(splitMix64(seed) + k);
}

/** Paper-shape checks on one finished search. */
void
checkSearch(const em::core::VirusReport &r, double resonance_hz,
            bool em_metric, Report &report)
{
    const auto &stats = r.ga.eval_stats;
    // Every fresh evaluation is one operation; faults end up here.
    report.succeeded(stats.evals - stats.permanent_failures);
    for (std::size_t i = 0; i < stats.permanent_failures; ++i)
        report.check(false, "evaluation failed permanently");
    report.check(!r.ga.history.empty()
                     && r.ga.best_fitness
                         > r.ga.history.front().best_fitness,
                 "best fitness beats generation 0");
    report.check(std::abs(r.dominant_freq_hz - resonance_hz)
                     <= 0.10 * resonance_hz,
                 "virus dominant frequency within 10% of the PDN "
                 "1st-order resonance");
    report.check(r.max_droop_v > 0.0, "virus droops the supply");
    if (!em_metric)
        report.check(std::abs(r.ga.best_fitness - r.max_droop_v)
                         < 0.25 * r.max_droop_v,
                     "search fitness matches the re-measured droop");
}

/** Setup: platform, generator and one warm evaluation. */
struct SearchSetup
{
    em::platform::Platform plat;
    em::core::VirusGenerator gen;

    explicit SearchSetup(bool em_metric)
        : plat(em::platform::junoA72Config(), kPlatformSeed), gen(plat)
    {
        // One evaluation through a fresh evaluator: builds the PDN
        // engine cache and, for EM, the Goertzel bank.
        const auto cfg = searchConfig(em_metric, 1);
        em::Rng rng(1);
        const auto kernel = em::isa::Kernel::random(
            plat.pool(), cfg.ga.kernel_length, rng);
        std::unique_ptr<em::core::PlatformFitness> eval;
        if (em_metric)
            eval = std::make_unique<em::core::EmAmplitudeFitness>(
                plat, cfg.eval);
        else
            eval = std::make_unique<em::core::MaxDroopFitness>(
                plat, cfg.eval);
        eval->evaluate(kernel, nullptr);
    }

    // gen holds a reference to plat.
    SearchSetup(const SearchSetup &) = delete;
    SearchSetup &operator=(const SearchSetup &) = delete;
};

/** The traced run: untraced reference, traced search, replays. */
void
tracedSearch(const RunArgs &args, bool em_metric, SearchSetup &setup,
             double resonance_hz, Report &report)
{
    // The same search untraced before and after the traced one: the
    // tracing overhead is measured against their mean.
    const auto cfg = searchConfig(em_metric, gaSeed(args.seed, 0));
    const auto untraced = [&] {
        const double t0 = nowSeconds();
        em::core::VirusReport r = setup.gen.search(cfg);
        const double wall = nowSeconds() - t0;
        checkSearch(r, resonance_hz, em_metric, report);
        return std::make_pair(std::move(r), wall);
    };
    const auto [reference, untraced_before] = untraced();

    SpanRecorder spans;
    LayerFigures figures;
    figures.main_is_em = em_metric;
    auto times = std::make_shared<EvalTimes>();
    EvalContext ctx;
    const std::string kind = em_metric ? "em" : "droop";
    em::metrics::setEnabled(true);
    figures.before = em::metrics::Registry::instance().snapshot();
    em::ga::GaResult traced;
    const double t0 = nowSeconds();
    {
        ScopedSpan root(&spans, "ga.search");
        std::unique_ptr<em::core::PlatformFitness> inner;
        if (em_metric)
            inner = std::make_unique<em::core::EmAmplitudeFitness>(
                setup.plat, cfg.eval);
        else
            inner = std::make_unique<em::core::MaxDroopFitness>(
                setup.plat, cfg.eval);
        TimingEvaluator timed(std::move(inner), times, &spans, kind, ctx);
        std::optional<em::ga::GaDriver> driver;
        timeCall("ga.driver_setup_ms", figures.calls, &spans, root.id(),
                 [&] { driver.emplace(setup.plat.pool(), cfg.ga, timed); });
        for (std::int64_t g = 0; !driver->done(); ++g) {
            ScopedSpan s(&spans, "ga.generation", root.id(), -1, g);
            ctx.generation->store(g);
            ctx.parent->store(s.id());
            const double g0 = nowSeconds();
            driver->step();
            figures.calls["ga.generation_ms"].push_back(
                1e3 * (nowSeconds() - g0));
        }
        traced = driver->finish();
        ScopedSpan s(&spans, "core.characterize", root.id());
        setup.gen.characterize(traced.best, cfg.eval);
    }
    const double traced_s = nowSeconds() - t0;
    figures.after = em::metrics::Registry::instance().snapshot();
    em::metrics::setEnabled(false);
    report.check(sameSearch(traced, reference.ga, setup.plat.pool()),
                 "traced search is bit-identical to the untraced one");
    figures.addSearch(traced.eval_stats);
    const double untraced_after = untraced().second;
    const double untraced_s = 0.5 * (untraced_before + untraced_after);
    std::printf("untraced searches: %.4f s before, %.4f s after\n",
                untraced_before, untraced_after);

    // Every chain replayed over a sample of the kernels the search
    // evaluated, so each layer is timed on this workload's kernels.
    {
        ScopedSpan root(&spans, "layers.replay");
        for (const auto &kernel : times->kernels(kind, kReplayKernels))
            replayLayers(setup.plat, cfg.eval, kernel,
                         kCoreChain | kEmChain | kScopeChain,
                         figures.calls, &spans, root.id());
        replayPlatformConfig(8, figures.calls, &spans, root.id());
    }
    figures.eval_ms = times->snapshot()[kind];
    figures.main_eval_ms = figures.eval_ms;
    reportLayers(report, figures);
    if (em_metric)
        printFigure("instruments.sa.band_evals",
                    counterGrowth(figures.before, figures.after,
                                  "instruments.sa.band_evals"),
                    "count", 1);

    writeTraceArtifacts(args, spans);
    const auto &st = traced.eval_stats;
    printOverhead("searches_per_s", 1.0 / traced_s, 1.0 / untraced_s,
                  "1/s");
    printOverhead("evals_per_s",
                  static_cast<double>(st.evals) / traced_s,
                  static_cast<double>(reference.ga.eval_stats.evals)
                      / untraced_s,
                  "1/s");
}

} // namespace

void
runSearchWorkload(const RunArgs &args, Report &report)
{
    const bool em_metric = args.workload == "em_search";
    em::metrics::setEnabled(false);
    SearchSetup setup(em_metric);
    if (!args.trace)
        report.metric("setup_s", nowSeconds() - args.start_s, "s");
    if (args.setup_only)
        return;

    const double resonance_hz =
        em::pdn::firstOrderResonanceHz(setup.plat.pdnModel());
    if (args.trace) {
        tracedSearch(args, em_metric, setup, resonance_hz, report);
        return;
    }

    std::vector<double> search_s;
    std::vector<double> rates;
    EndToEnd e2e;
    const double loop0 = nowSeconds();
    for (std::size_t k = 0;
         nowSeconds() - loop0 < args.seconds
         || e2e.generation_ms.size()
             < samplesNeeded(kGenerationQuantiles[1]);
         ++k) {
        const auto cfg = searchConfig(em_metric, gaSeed(args.seed, k));
        const double t0 = nowSeconds();
        double last = t0;
        const em::core::VirusReport r = setup.gen.search(
            cfg, [&](const em::ga::GenerationRecord &) {
                const double t = nowSeconds();
                e2e.generation_ms.push_back(1e3 * (t - last));
                last = t;
            });
        const double wall = nowSeconds() - t0;
        search_s.push_back(wall);
        rates.push_back(static_cast<double>(r.ga.eval_stats.evals)
                        / wall);
        e2e.evals += r.ga.eval_stats.evals;
        std::printf("search %zu: %.3f s, %zu evals, %zu cache hits, "
                    "dominant %.2f MHz, fitness %.4f\n",
                    k, wall, r.ga.eval_stats.evals,
                    r.ga.eval_stats.cache_hits,
                    r.dominant_freq_hz / 1e6, r.ga.best_fitness);
        checkSearch(r, resonance_hz, em_metric, report);
    }
    // Medians over the run's searches: one search slowed by the host
    // moves neither figure.
    e2e.searches = search_s.size();
    e2e.searches_per_s = 1.0 / median(search_s);
    e2e.evals_per_s = median(rates);
    printFigure("search_s", median(search_s), "s", search_s.size());
    reportEndToEnd(report, e2e);
}

} // namespace perfbench
