/**
 * @file
 * The service_mix workload's job sequence: a pure function of the
 * workload seed and the position in the sequence. Fresh positions
 * are small real searches (A72 and A53 EM, A72 droop, active EMFI);
 * duplicate positions repeat the spec of an earlier fresh position
 * under another tenant, so they are content-addressed reads beside
 * the fresh writes.
 *
 * Randomness comes from a SplitMix64 stream private to the benchmark,
 * never from the program's own RNG layer, so a change to that layer
 * does not change what the benchmark submits.
 */

#ifndef PERFBENCH_JOB_MIX_H
#define PERFBENCH_JOB_MIX_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "service/job.h"

namespace perfbench {

/** What a fresh position searches for. */
enum class JobKind : std::uint8_t
{
    kA72Em = 0,    ///< EM-amplitude virus on the Cortex-A72.
    kA53Em = 1,    ///< EM-amplitude virus on the Cortex-A53.
    kA72Droop = 2, ///< OC-DSO max-droop virus on the Cortex-A72.
    kEmfi = 3,     ///< Minimum-energy EMFI pulse on the Cortex-A72.
};

inline constexpr std::size_t kJobKinds = 4;

/** Stable short name of a kind ("a72_em", ...). */
const char *jobKindName(JobKind kind);

/** A tenant of the mix and its fair-share weight. */
struct TenantPlan
{
    const char *name;
    double weight;
};

/**
 * The four tenants, weighted 4:2:1:1. Each submits the same share of
 * the fresh jobs as its weight (4 in every 8 are alpha's, ...), so
 * fair queuing interleaves them without starving any one tenant.
 */
inline constexpr std::array<TenantPlan, 4> kTenants{{
    {"alpha", 4.0}, {"bravo", 2.0}, {"charlie", 1.0}, {"delta", 1.0}}};

/** One position of the sequence. */
struct MixEntry
{
    std::size_t index = 0;     ///< Position in the sequence.
    bool duplicate = false;    ///< Repeats an earlier fresh spec.
    std::size_t original = 0;  ///< Fresh position it repeats.
    JobKind kind = JobKind::kA72Em;
    std::size_t tenant = 0;    ///< Index into kTenants.
    emstress::service::JobSpec spec;
    std::uint64_t fingerprint = 0; ///< service::jobFingerprint(spec).
};

/**
 * Shape of the sequence. Shares are exact per block rather than drawn
 * independently per position, and the seed only shuffles the order
 * inside each block: seeds change which job comes when, not how much
 * work a run holds.
 */
/// Positions per duplicate block, and fresh jobs per kind block.
inline constexpr std::size_t kMixBlock = 20;
/// Duplicates among each block of positions past the lag.
inline constexpr std::size_t kDuplicatesPerBlock = 4;
/// A duplicate repeats a fresh position at least this many positions
/// earlier, so the original has normally finished.
inline constexpr std::size_t kDuplicateLag = 24;
/// Duplicates pick their original among this many positions.
inline constexpr std::size_t kDuplicateWindow = 64;
/// Jobs of each kind, in JobKind order, per block of fresh jobs.
inline constexpr std::array<std::size_t, kJobKinds> kKindPerBlock{
    {9, 4, 6, 1}};
/// Fresh jobs per tenant block (the sum of the tenant weights).
inline constexpr std::size_t kTenantBlock = 8;
/// Fresh jobs of each tenant, in kTenants order, per tenant block.
inline constexpr std::array<std::size_t, kTenants.size()>
    kTenantPerBlock{{4, 2, 1, 1}};
/// One in this many of every tenant's fresh jobs is kInteractive:
/// tenant and class are drawn jointly from blocks of
/// kInteractiveEvery * kTenantBlock fresh jobs.
inline constexpr std::size_t kInteractiveEvery = 3;

/** The spec a fresh position of a kind submits. */
emstress::service::JobSpec smallJobSpec(JobKind kind,
                                        std::uint64_t ga_seed);

/** The deterministic job sequence of one workload seed. */
class JobMix
{
  public:
    explicit JobMix(std::uint64_t seed) : seed_(seed) {}

    /** Position i of the sequence (pure in seed and i). */
    MixEntry entry(std::size_t i) const;

  private:
    /** True when position i is a duplicate. */
    bool isDuplicate(std::size_t i) const;

    /** Independent 64-bit draw for (position, stream). */
    std::uint64_t draw(std::size_t i, std::uint64_t stream) const;

    /**
     * Slot of position i within its block of n under the block's
     * seed-shuffled permutation (a pure function of seed and i).
     */
    std::size_t blockSlot(std::size_t i, std::size_t n,
                          std::uint64_t stream) const;

    /** Fresh positions strictly before position i. */
    std::size_t freshBefore(std::size_t i) const;

    /** The fresh entry at position i (ignores duplicate status). */
    MixEntry fresh(std::size_t i) const;

    std::uint64_t seed_;
};

/** SplitMix64 finalizer: a well-mixed 64-bit hash of x. */
std::uint64_t splitMix64(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_JOB_MIX_H
