/**
 * @file
 * Deterministic random number generation. Every stochastic component
 * in emstress (GA operators, measurement noise, workload generators,
 * SDC classification) draws from an explicitly seeded Rng so that
 * experiments are exactly reproducible from a seed.
 */

#ifndef EMSTRESS_UTIL_RNG_H
#define EMSTRESS_UTIL_RNG_H

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

#include "util/error.h"
#include "util/units.h"

namespace emstress {

/**
 * splitmix64 finalizer: scrambles a 64-bit value into a well-mixed
 * seed. Used to derive independent noise streams from structural keys
 * (kernel hashes, sweep-point indices) so that a measurement's noise
 * depends only on *what* is measured, never on evaluation order —
 * the property that makes parallel evaluation bit-identical to
 * serial and makes fitness memoization lossless.
 */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one well-mixed seed. */
inline std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    return mixSeed(a ^ mixSeed(b));
}

/**
 * FNV-1a 64-bit hash of a byte string: a fully specified name-to-key
 * map (unlike std::hash, whose values are implementation-defined),
 * used for artifact fingerprints and name-derived seeds. The offset
 * basis is the project's historical constant (the published basis
 * without its last digit); stored fingerprints were made with it.
 */
inline std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Keyed (counter-based) draws: the value depends only on
 * (key, counter), so a consumer can draw exactly the values it reads,
 * in any order. Every algorithm is written out, so the streams are
 * the same on any conforming standard library.
 */

/** Uniform double in (0, 1]: the counter-th draw of stream `key`. */
inline double
keyedUniform(std::uint64_t key, std::uint64_t counter)
{
    // Top 53 bits, shifted up by one ulp so log() never sees zero.
    return static_cast<double>((mixSeed(key, counter) >> 11) + 1)
        * 0x1.0p-53;
}

/**
 * Standard normal from keyed uniforms 2*counter and 2*counter+1
 * (Box-Muller, cosine branch).
 */
inline double
keyedNormal(std::uint64_t key, std::uint64_t counter)
{
    const double u1 = keyedUniform(key, 2 * counter);
    const double u2 = keyedUniform(key, 2 * counter + 1);
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

/** Unit-mean exponential from keyed uniform `counter` (-ln u). */
inline double
keyedExponential(std::uint64_t key, std::uint64_t counter)
{
    return -std::log(keyedUniform(key, counter));
}

/**
 * Seeded pseudo-random source wrapping std::mt19937_64 with the
 * convenience draws the library needs. Cheap to copy; copies evolve
 * independently, which forks a reproducible sub-stream.
 */
class Rng
{
  public:
    /** Construct from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Derive an independent child stream (e.g. one per GA island). */
    Rng
    fork()
    {
        return Rng(bits());
    }

    /**
     * One raw 64-bit engine output. std::mt19937_64 is fully
     * specified by the standard, so this (unlike the distribution
     * draws below) is library-independent: use it to key
     * keyedUniform() and friends.
     */
    std::uint64_t bits() { return engine_(); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(engine_);
    }

    /** Uniform size_t index in [0, n). @pre n > 0. */
    std::size_t
    index(std::size_t n)
    {
        requireSim(n > 0, "Rng::index called with empty range");
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
    }

    /** Gaussian draw with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Bernoulli draw: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Pick a uniformly random element of a non-empty span. */
    template <typename T>
    const T &
    pick(std::span<const T> items)
    {
        return items[index(items.size())];
    }

  private:
    std::mt19937_64 engine_;
};

} // namespace emstress

#endif // EMSTRESS_UTIL_RNG_H
