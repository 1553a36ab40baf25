/**
 * @file
 * Job model implementation.
 */

#include "service/job.h"

#include <sstream>

#include "platform/platform.h"
#include "util/error.h"

namespace emstress {
namespace service {

platform::PlatformConfig
presetConfig(PlatformPreset preset)
{
    switch (preset) {
    case PlatformPreset::kJunoA72:
        return platform::junoA72Config();
    case PlatformPreset::kJunoA53:
        return platform::junoA53Config();
    case PlatformPreset::kAthlon:
        return platform::athlonConfig();
    }
    throwConfigError("unknown platform preset");
}

const isa::InstructionPool &
presetPool(PlatformPreset preset)
{
    // Immutable after construction; shared by every job and the
    // client-side wire codec. Construction is deterministic, so these
    // are content-identical to the pools platforms build themselves.
    // Switching on the preset, not presetConfig(preset).isa, keeps
    // this free of the PDN calibration a full config build runs.
    static const isa::InstructionPool arm =
        isa::InstructionPool::armV8();
    static const isa::InstructionPool x86 =
        isa::InstructionPool::x86Sse2();
    switch (preset) {
    case PlatformPreset::kJunoA72:
    case PlatformPreset::kJunoA53:
        return arm;
    case PlatformPreset::kAthlon:
        return x86;
    }
    throwConfigError("unknown platform preset");
}

std::string
presetName(PlatformPreset preset)
{
    switch (preset) {
    case PlatformPreset::kJunoA72: return "a72";
    case PlatformPreset::kJunoA53: return "a53";
    case PlatformPreset::kAthlon:  return "athlon";
    }
    return "unknown";
}

bool
presetFromName(const std::string &name, PlatformPreset &out)
{
    if (name == "a72") {
        out = PlatformPreset::kJunoA72;
        return true;
    }
    if (name == "a53") {
        out = PlatformPreset::kJunoA53;
        return true;
    }
    if (name == "athlon") {
        out = PlatformPreset::kAthlon;
        return true;
    }
    return false;
}

std::string
jobStateName(JobState state)
{
    switch (state) {
    case JobState::kQueued:    return "queued";
    case JobState::kRunning:   return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed:    return "failed";
    }
    return "unknown";
}

std::string
jobModeName(JobMode mode)
{
    switch (mode) {
    case JobMode::kPassiveVirus: return "virus";
    case JobMode::kActiveEmfi:   return "emfi";
    }
    return "unknown";
}

std::string
jobClassName(JobClass job_class)
{
    switch (job_class) {
    case JobClass::kBatch:       return "batch";
    case JobClass::kInteractive: return "interactive";
    }
    return "unknown";
}

std::string
jobDescription(const JobSpec &spec)
{
    std::ostringstream os;
    os.precision(17);
    os << "plat:" << presetName(spec.platform)
       << ":seed" << spec.platform_seed
       << "|ga:" << spec.ga.population << 'x' << spec.ga.generations
       << ":len" << spec.ga.kernel_length
       << ":mut" << spec.ga.mutation_rate
       << ":op" << spec.ga.operand_mutation_ratio
       << ":tk" << spec.ga.tournament_k
       << ":el" << spec.ga.elite
       << ":seed" << spec.ga.seed
       << ":rs" << spec.ga.restarts
       << ":ra" << spec.ga.retry.max_attempts
       << "|eval:dur" << spec.eval.duration_s
       << ":sa" << spec.eval.sa_samples
       << ":f" << spec.eval.f_lo_hz << '-' << spec.eval.f_hi_hz
       << ":cores" << spec.eval.active_cores
       // Fixed term with no setting behind it: stored and spilled
       // artifacts are addressed by this description, so dropping
       // it would move every fingerprint.
       << ":stream1"
       << "|metric:" << core::virusMetricName(spec.metric);
    // Active-mode fields extend the description; the passive form
    // stays byte-identical to the pre-EMFI service, so (a) stored
    // passive artifacts from older deployments remain addressable
    // and (b) an active spec can never collide with a passive one
    // that matches it field-for-field — the "|mode:emfi" suffix
    // alone separates the preimages.
    if (spec.mode == JobMode::kActiveEmfi) {
        os << "|mode:" << jobModeName(spec.mode)
           << "|victim:seed" << spec.emfi.victim_seed
           << ":len" << spec.emfi.victim_length
           << ":tgt" << spec.emfi.target_slot
           << "|sched:" << spec.emfi.schedule_seed
           << "|grid:t0" << spec.emfi.t0_max_s
           << ":amp" << spec.emfi.amplitude_max_a;
    }
    return os.str();
}

std::uint64_t
jobFingerprint(const JobSpec &spec)
{
    // FNV-1a 64-bit, the same construction the cross-bench virus
    // cache fingerprints budgets with.
    const std::string s = jobDescription(spec);
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : s) {
        h ^= static_cast<std::uint64_t>(
            static_cast<unsigned char>(ch));
        h *= 1099511628211ull;
    }
    return h;
}

std::unique_ptr<ga::FitnessEvaluator>
makePlatformEvaluator(const JobSpec &spec)
{
    // Build a throwaway bound evaluator, then take an owning clone:
    // PlatformFitness::clone replicates the platform, so the returned
    // evaluator carries its own simulation stack and remains valid
    // after the local platform dies.
    platform::Platform plat(presetConfig(spec.platform),
                            spec.platform_seed);
    if (spec.mode == JobMode::kActiveEmfi) {
        requireConfig(spec.emfi.victim_length > 0,
                      "EMFI job needs a non-empty victim");
        requireConfig(
            spec.emfi.target_slot < spec.emfi.victim_length,
            "EMFI target_slot outside the victim kernel");
        requireConfig(
            spec.ga.kernel_length >= ga::kPulseGenomeSlots,
            "EMFI job kernel_length below the pulse genome size");
        core::EmfiCampaignSpec campaign;
        Rng victim_rng(spec.emfi.victim_seed);
        campaign.victim = isa::Kernel::random(
            presetPool(spec.platform), spec.emfi.victim_length,
            victim_rng);
        campaign.target_slot = spec.emfi.target_slot;
        campaign.eval = spec.eval;
        campaign.effects.schedule_seed = spec.emfi.schedule_seed;
        campaign.grid.t0_max_s = spec.emfi.t0_max_s;
        campaign.grid.amplitude_max_a = spec.emfi.amplitude_max_a;
        core::PulseFaultFitness bound_emfi(plat, campaign);
        auto owned_emfi = bound_emfi.clone();
        requireSim(owned_emfi != nullptr,
                   "EMFI evaluator unexpectedly not cloneable");
        return owned_emfi;
    }
    std::unique_ptr<core::PlatformFitness> bound;
    switch (spec.metric) {
    case core::VirusMetric::EmAmplitude:
        bound = std::make_unique<core::EmAmplitudeFitness>(plat,
                                                           spec.eval);
        break;
    case core::VirusMetric::MaxDroop:
        bound = std::make_unique<core::MaxDroopFitness>(plat,
                                                        spec.eval);
        break;
    case core::VirusMetric::PeakToPeak:
        bound = std::make_unique<core::PeakToPeakFitness>(plat,
                                                          spec.eval);
        break;
    }
    requireConfig(bound != nullptr, "unknown virus metric");
    auto owned = bound->clone();
    requireSim(owned != nullptr,
               "platform evaluator unexpectedly not cloneable");
    return owned;
}

} // namespace service
} // namespace emstress
