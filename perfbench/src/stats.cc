/**
 * @file
 * Exact sample statistics.
 */

#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** 1-based nearest rank of quantile q among n samples. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const double r = std::ceil(q * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

std::optional<Percentile>
exactPercentile(std::vector<double> samples, double q,
                std::size_t min_beyond)
{
    const std::size_t n = samples.size();
    if (n == 0 || !(q > 0.0) || q > 1.0)
        return std::nullopt;
    const std::size_t rank = nearestRank(q, n);
    const std::size_t beyond = n - rank;
    if (beyond < min_beyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin()
                         + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return Percentile{samples[rank - 1], n, beyond};
}

std::size_t
samplesNeeded(double q, std::size_t min_beyond)
{
    if (!(q > 0.0) || !(q < 1.0))
        return 0; // q = 1 never has samples beyond it
    std::size_t n = 1;
    while (n - nearestRank(q, n) < min_beyond)
        ++n;
    return n;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n % 2 == 1)
        return samples[n / 2];
    return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

} // namespace perfbench
