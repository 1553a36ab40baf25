/**
 * @file
 * Helpers shared by the workloads: the end-to-end and per-layer metric
 * sets every workload reports, result comparison, registry counter
 * growth, peak RSS and the traced run's artifacts.
 */

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "span_trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

bool
sameSearch(const emstress::ga::GaResult &a,
           const emstress::ga::GaResult &b,
           const emstress::isa::InstructionPool &pool)
{
    if (a.best.serialize(pool) != b.best.serialize(pool)
        || a.best_fitness != b.best_fitness
        || a.estimated_lab_seconds != b.estimated_lab_seconds
        || a.eval_stats.evals != b.eval_stats.evals
        || a.eval_stats.cache_hits != b.eval_stats.cache_hits
        || a.history.size() != b.history.size())
        return false;
    for (std::size_t i = 0; i < a.history.size(); ++i)
        if (a.history[i].best_fitness != b.history[i].best_fitness
            || a.history[i].mean_fitness != b.history[i].mean_fitness
            || a.history[i].best.serialize(pool)
                != b.history[i].best.serialize(pool))
            return false;
    return true;
}

double
counterGrowth(const emstress::metrics::MetricsSnapshot &before,
              const emstress::metrics::MetricsSnapshot &after,
              const char *name)
{
    const auto count = [&](const emstress::metrics::MetricsSnapshot &s) {
        const auto it = s.counters.find(name);
        return it == s.counters.end() ? 0 : it->second;
    };
    return static_cast<double>(count(after) - count(before));
}

void
printFigure(const std::string &name, double value, const char *unit,
            std::size_t samples)
{
    std::printf("figure %-34s %14.6f %-5s samples=%zu\n", name.c_str(),
                value, unit, samples);
}

void
reportEndToEnd(Report &report, const EndToEnd &e2e)
{
    report.metric("searches_per_s", e2e.searches_per_s, "1/s",
                  e2e.searches);
    report.metric("evals_per_s", e2e.evals_per_s, "1/s", e2e.evals);
    for (const auto &[name, q] :
         {std::pair{"generation_p50_ms", kGenerationQuantiles[0]},
          std::pair{"generation_p80_ms", kGenerationQuantiles[1]}}) {
        const auto p = exactPercentile(e2e.generation_ms, q);
        if (report.check(p.has_value(),
                         std::string(name) + " has enough samples ("
                             + std::to_string(e2e.generation_ms.size())
                             + ")"))
            report.metric(name, p->value, "ms", p->n);
    }
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
}

void
LayerFigures::addSearch(const emstress::ga::EvalStats &stats)
{
    ga.evals += stats.evals;
    ga.cache_hits += stats.cache_hits;
    ga.eval_seconds += stats.eval_seconds;
    eval_capacity_s +=
        stats.wall_seconds * static_cast<double>(stats.threads);
}

void
reportLayers(Report &report, const LayerFigures &f)
{
    const auto calls = [&](const char *name) -> const std::vector<double> & {
        static const std::vector<double> none;
        const auto it = f.calls.find(name);
        return it == f.calls.end() ? none : it->second;
    };
    for (const char *name :
         {"uarch.loop_ms", "pdn.stream_ms", "platform.stream_ms",
          "em.antenna_ms", "dsp.goertzel_push_ms", "dsp.goertzel_bank_ms",
          "instruments.sa_sweeps_ms", "instruments.scope_ms",
          "platform.config_ms", "ga.driver_setup_ms", "ga.generation_ms"})
        report.metric(name, median(calls(name)), "ms",
                      calls(name).size());

    report.metric("core.eval_ms", median(f.eval_ms), "ms",
                  f.eval_ms.size());
    // The main kind's evaluation less the replays of its own chain.
    const double main_ms = median(f.main_eval_ms);
    double attributed = median(calls("platform.stream_ms"));
    if (f.main_is_em)
        attributed += median(calls("dsp.goertzel_push_ms"))
            + median(calls("instruments.sa_sweeps_ms"));
    else
        attributed += median(calls("instruments.scope_ms"));
    report.metric("core.eval_unattributed_pct",
                  100.0 * (main_ms - attributed) / main_ms, "%",
                  f.main_eval_ms.size());

    report.metric("ga.fresh_evals", static_cast<double>(f.ga.evals),
                  "count");
    report.metric("ga.cache_hits", static_cast<double>(f.ga.cache_hits),
                  "count");
    report.metric("ga.parallel_efficiency",
                  f.ga.eval_seconds / f.eval_capacity_s, "ratio");
    for (const char *name :
         {"circuit.transient.steps", "batch.fresh_evals"})
        report.metric(name, counterGrowth(f.before, f.after, name),
                      "count");
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
writeTraceArtifacts(const RunArgs &args, const SpanRecorder &spans)
{
    std::filesystem::create_directories(args.out_dir);
    const std::filesystem::path path = std::filesystem::path(args.out_dir)
        / ("trace." + args.workload + "." + std::to_string(args.seed)
           + ".json");
    std::ofstream out(path);
    spans.writeChromeTrace(out);
    std::printf("trace: %s (Chrome trace-event JSON)\n",
                path.string().c_str());

    std::printf("%-28s %7s %12s %12s %9s\n", "span", "count",
                "total_s", "self_s", "self_%");
    for (const SpanSummary &row : spans.summarize()) {
        std::printf("%-28s %7zu %12.4f %12.4f %8.1f%%%s\n",
                    row.name.c_str(), row.count, row.total_s,
                    row.self_s,
                    row.total_s > 0 ? 100.0 * row.self_s / row.total_s
                                    : 0.0,
                    row.has_children ? "  (unattributed remainder)"
                                     : "");
    }
}

void
printOverhead(const char *metric, double traced, double untraced,
              const char *unit)
{
    std::printf("tracing overhead %-26s traced %.6f - untraced %.6f "
                "= %+.6f %s\n",
                metric, traced, untraced, traced - untraced, unit);
}

} // namespace perfbench
