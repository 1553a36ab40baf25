/**
 * @file
 * The benchmark's workloads. Each runs in its own process: set-up,
 * then the timed loop (or, with tracing, the traced replay), then the
 * output checks, all reported into one Report.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ga/ga_engine.h"
#include "layers.h"
#include "report.h"
#include "util/metrics.h"

namespace perfbench {

/** Command-line settings of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false; ///< Stop after set-up (set-up sampling).
    std::string out_dir = ".bench_out"; ///< Trace and spill files.
    double start_s = 0.0; ///< Monotonic time main() was entered.
};

/**
 * The end-to-end figures every workload reports with tracing off.
 * A "search" is one GA search: a whole Fig. 7 search in em_search and
 * droop_search, one searched job in service_mix.
 */
struct EndToEnd
{
    double searches_per_s = 0.0; ///< Searches completed per second.
    std::size_t searches = 0;    ///< Searches it was measured over.
    double evals_per_s = 0.0;    ///< Fresh evaluations per second.
    std::size_t evals = 0;       ///< Fresh evaluations counted.
    /// Intervals between a search's successive generation reports
    /// [ms], the first one from the search's start.
    std::vector<double> generation_ms;
};

/**
 * The generation-interval percentiles reported. p80 is the highest
 * that a 25 s run of em_search (4 to 5 searches of 15 reported
 * generations) pins with 10 samples beyond it.
 */
inline constexpr double kGenerationQuantiles[] = {0.50, 0.80};

/**
 * Report searches_per_s, evals_per_s, generation_p50_ms,
 * generation_p80_ms and peak_rss_mib. A percentile without enough
 * samples beyond it fails a check instead.
 */
void reportEndToEnd(Report &report, const EndToEnd &e2e);

/** The per-layer figures every traced run reports. */
struct LayerFigures
{
    /// Replayed calls: every chain layer, platform.config_ms,
    /// ga.driver_setup_ms and ga.generation_ms.
    LayerTimes calls;
    std::vector<double> eval_ms;      ///< Every traced evaluate() call.
    std::vector<double> main_eval_ms; ///< Those of the main kind.
    bool main_is_em = true; ///< Main kind is EM (else droop) fitness.
    emstress::ga::EvalStats ga;       ///< Summed over traced searches.
    double eval_capacity_s = 0.0; ///< Sum of wall_seconds x threads.
    emstress::metrics::MetricsSnapshot before, after; ///< Registry.

    /** Add one traced search's evaluation statistics. */
    void addSearch(const emstress::ga::EvalStats &stats);
};

/** Report every per-layer metric from a traced run's figures. */
void reportLayers(Report &report, const LayerFigures &figures);

/** em_search and droop_search. */
void runSearchWorkload(const RunArgs &args, Report &report);

/** service_mix. */
void runServiceWorkload(const RunArgs &args, Report &report);

/** Peak resident set of this process [MiB]. */
double peakRssMib();

/**
 * True when two GA results agree bit for bit: best kernel and
 * fitness, modeled lab time, evaluation counts and the whole history.
 */
bool sameSearch(const emstress::ga::GaResult &a,
                const emstress::ga::GaResult &b,
                const emstress::isa::InstructionPool &pool);

/** Growth of a registry counter between two snapshots. */
double counterGrowth(const emstress::metrics::MetricsSnapshot &before,
                     const emstress::metrics::MetricsSnapshot &after,
                     const char *name);

/**
 * Print a figure a workload measures beyond the benchmark's metric
 * set (a readable line only; it is not in the result line).
 */
void printFigure(const std::string &name, double value,
                 const char *unit, std::size_t samples);

/** Write the Chrome trace and print the span summary. */
class SpanRecorder;
void writeTraceArtifacts(const RunArgs &args, const SpanRecorder &spans);

/** Print one "traced - untraced" overhead line. */
void printOverhead(const char *metric, double traced,
                   double untraced, const char *unit);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
