/**
 * @file
 * Exact sample statistics for the benchmark's own measurements:
 * nearest-rank percentiles over sorted per-operation samples (never
 * the service's bucketed histograms) with the rule that a percentile
 * is reported only when enough samples lie beyond it to pin it down.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** A percentile read from sorted samples. */
struct Percentile
{
    double value = 0.0;     ///< The sample at the nearest rank.
    std::size_t n = 0;      ///< Samples it was read from.
    std::size_t beyond = 0; ///< Samples ranked strictly above it.
};

/**
 * Nearest-rank percentile: the ceil(q * n)-th smallest sample
 * (1-based), so the value is always one of the samples. Returns
 * nullopt for an empty sample set, q outside (0, 1], or when fewer
 * than min_beyond samples rank above the percentile.
 */
std::optional<Percentile>
exactPercentile(std::vector<double> samples, double q,
                std::size_t min_beyond = kMinSamplesBeyond);

/**
 * Samples a percentile q needs for min_beyond samples to rank above
 * it (the smallest n with n - ceil(q * n) >= min_beyond); 0 for q
 * outside (0, 1), where no sample count suffices.
 */
std::size_t samplesNeeded(double q,
                          std::size_t min_beyond = kMinSamplesBeyond);

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
