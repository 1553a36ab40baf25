/**
 * @file
 * The service_mix job sequence.
 */

#include "job_mix.h"

#include <numeric>
#include <utility>
#include <vector>

#include "ga/pulse_genome.h"

namespace perfbench {

using emstress::service::JobClass;
using emstress::service::JobMode;
using emstress::service::JobSpec;
using emstress::service::PlatformPreset;

std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace {

template <std::size_t N>
constexpr std::size_t
total(const std::array<std::size_t, N> &shares)
{
    return std::accumulate(shares.begin(), shares.end(),
                           std::size_t{0});
}

static_assert(total(kKindPerBlock) == kMixBlock);
static_assert(total(kTenantPerBlock) == kTenantBlock);
static_assert(kDuplicatesPerBlock < kMixBlock);

/** Index whose cumulative share range holds a block slot. */
template <std::size_t N>
std::size_t
pickShare(std::size_t slot, const std::array<std::size_t, N> &shares)
{
    for (std::size_t k = 0; k < N; ++k) {
        if (slot < shares[k])
            return k;
        slot -= shares[k];
    }
    return N - 1;
}

} // namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
    case JobKind::kA72Em:    return "a72_em";
    case JobKind::kA53Em:    return "a53_em";
    case JobKind::kA72Droop: return "a72_droop";
    case JobKind::kEmfi:     return "emfi";
    }
    return "unknown";
}

JobSpec
smallJobSpec(JobKind kind, std::uint64_t ga_seed)
{
    JobSpec spec;
    spec.ga.population = 8;
    spec.ga.generations = 4;
    spec.ga.kernel_length = 16;
    spec.ga.elite = 2;
    spec.ga.restarts = 1;
    spec.ga.seed = ga_seed;
    spec.eval.duration_s = 2e-6;
    spec.eval.sa_samples = 4;
    switch (kind) {
    case JobKind::kA72Em:
        break;
    case JobKind::kA53Em:
        spec.platform = PlatformPreset::kJunoA53;
        break;
    case JobKind::kA72Droop:
        spec.metric = emstress::core::VirusMetric::MaxDroop;
        break;
    case JobKind::kEmfi:
        spec.mode = JobMode::kActiveEmfi;
        spec.ga.generations = 3;
        spec.ga.kernel_length = emstress::ga::kPulseGenomeSlots;
        spec.eval.duration_s = 1e-6;
        spec.emfi.victim_seed = ga_seed % 97;
        spec.emfi.t0_max_s = 0.8e-6;
        break;
    }
    return spec;
}

std::uint64_t
JobMix::draw(std::size_t i, std::uint64_t stream) const
{
    return splitMix64(splitMix64(seed_ ^ (stream << 56))
                      ^ static_cast<std::uint64_t>(i));
}

std::size_t
JobMix::blockSlot(std::size_t i, std::size_t n,
                  std::uint64_t stream) const
{
    // Fisher-Yates permutation of the block, keyed by (seed, block).
    const std::size_t block = i / n;
    std::vector<std::size_t> perm(n);
    for (std::size_t k = 0; k < n; ++k)
        perm[k] = k;
    for (std::size_t k = n; k > 1; --k)
        std::swap(perm[k - 1], perm[draw(block * n + k, stream) % k]);
    return perm[i % n];
}

bool
JobMix::isDuplicate(std::size_t i) const
{
    if (i < kDuplicateLag)
        return false;
    return blockSlot(i, kMixBlock, 1) < kDuplicatesPerBlock;
}

std::size_t
JobMix::freshBefore(std::size_t i) const
{
    std::size_t n = 0;
    for (std::size_t j = 0; j < i; ++j)
        n += isDuplicate(j) ? 0 : 1;
    return n;
}

MixEntry
JobMix::fresh(std::size_t i) const
{
    MixEntry e;
    e.index = i;
    // Kind, tenant and class from the fresh-job ordinal's slots in
    // its blocks.
    const std::size_t ordinal = freshBefore(i);
    e.kind = static_cast<JobKind>(
        pickShare(blockSlot(ordinal, kMixBlock, 2), kKindPerBlock));
    e.spec = smallJobSpec(e.kind, draw(i, 3));
    const std::size_t slot =
        blockSlot(ordinal, kInteractiveEvery * kTenantBlock, 5);
    e.tenant = pickShare(slot % kTenantBlock, kTenantPerBlock);
    e.spec.tenant = kTenants[e.tenant].name;
    if (slot < kTenantBlock)
        e.spec.job_class = JobClass::kInteractive;
    e.fingerprint = emstress::service::jobFingerprint(e.spec);
    return e;
}

MixEntry
JobMix::entry(std::size_t i) const
{
    if (!isDuplicate(i))
        return fresh(i);
    // Walk back from a drawn point inside the window to the nearest
    // fresh position; position 0 is always fresh.
    const std::size_t newest = i - kDuplicateLag;
    const std::size_t back =
        static_cast<std::size_t>(draw(i, 4) % kDuplicateWindow);
    std::size_t j = back > newest ? 0 : newest - back;
    while (isDuplicate(j))
        --j;
    MixEntry e = fresh(j);
    e.index = i;
    e.duplicate = true;
    e.original = j;
    e.tenant = (e.tenant + 1) % kTenants.size();
    e.spec.tenant = kTenants[e.tenant].name;
    e.spec.job_class = JobClass::kBatch;
    return e;
}

} // namespace perfbench
