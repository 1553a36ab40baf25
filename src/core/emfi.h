/**
 * @file
 * Active-EMFI campaigns: run a victim kernel with an armed pulse,
 * convert the resulting die-voltage transient into ISA-level fault
 * events, and search for the minimal-energy pulse that faults a
 * chosen victim instruction — the inverted use of the GA machinery
 * (the passive search maximizes noise; this search minimizes attack
 * energy subject to "the target slot faults").
 *
 * Determinism: a campaign run is a pure function of (platform
 * config, platform seed, victim kernel, pulse spec, fault-effects
 * params). The pulse-search fitness derives from that alone — no
 * measurement-noise stream — so GA memoization, parallel batch
 * evaluation and replay from a recorded (seed, schedule) are all
 * bit-identical to the serial path.
 */

#ifndef EMSTRESS_CORE_EMFI_H
#define EMSTRESS_CORE_EMFI_H

#include <memory>
#include <string>

#include "core/fitness.h"
#include "em/pulse_injector.h"
#include "ga/ga_engine.h"
#include "ga/pulse_genome.h"
#include "isa/kernel.h"
#include "platform/platform.h"
#include "vmin/fault_effects.h"

namespace emstress {
namespace core {

/** Everything one EMFI campaign needs beyond the platform. */
struct EmfiCampaignSpec
{
    isa::Kernel victim;          ///< Victim loop body.
    std::size_t target_slot = 0; ///< Victim instruction to fault.
    EvalSettings eval;           ///< Run window / streaming toggle.
    vmin::FaultEffectsParams effects; ///< ISA fault model.
    ga::PulseGrid grid;          ///< Pulse search space.
};

/** Outcome of firing one pulse at the victim. */
struct EmfiRunOutcome
{
    em::PulseSpec pulse;       ///< The pulse that was fired.
    vmin::FaultReport report;  ///< ISA-level fault analysis.
    double energy_j = 0.0;     ///< Injected pulse energy [J].
    bool target_faulted = false; ///< Any event hit target_slot.
    /// The target slot's voltage margin (negative = crossed) [V] —
    /// the non-faulting regime's search gradient.
    double target_margin_v = 0.0;
};

/**
 * Fire one pulse: arm it on the platform, run the victim kernel
 * (streaming), run the fault-effects analysis against the armed
 * pulse, and restore the platform's previous arm state
 * (exception-safe).
 */
EmfiRunOutcome runEmfiPulse(platform::Platform &plat,
                            const EmfiCampaignSpec &spec,
                            const em::PulseSpec &pulse);

/**
 * Fitness of a pulse outcome for the minimal-energy search. Shaped
 * in two regimes so the GA always has a gradient: non-faulting
 * pulses score in (0, 1] rising as the target slot's margin
 * approaches zero; faulting pulses score in (2, 3] rising as energy
 * falls (normalized by the grid's maximal pulse energy). Every
 * faulting pulse therefore dominates every non-faulting one.
 */
double pulseSearchFitness(const EmfiRunOutcome &outcome,
                          const ga::PulseGrid &grid);

/**
 * GA evaluator for the pulse search: decodes each kernel genome
 * through the pulse grid (see ga/pulse_genome.h), fires it at the
 * victim and scores with pulseSearchFitness. Deterministic per
 * genome, hence order-independent, memoizable and cloneable.
 */
class PulseFaultFitness : public PlatformFitness
{
  public:
    PulseFaultFitness(platform::Platform &plat,
                      const EmfiCampaignSpec &spec);

    double evaluate(const isa::Kernel &genome,
                    ga::EvalDetail *detail) override;

    std::string metricName() const override
    {
        return "emfi-min-energy";
    }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

    /** The campaign this evaluator fires against. */
    const EmfiCampaignSpec &spec() const { return spec_; }

  private:
    PulseFaultFitness(std::shared_ptr<platform::Platform> owned,
                      const EmfiCampaignSpec &spec);

    EmfiCampaignSpec spec_;
};

/** Result of a minimal-energy pulse search. */
struct EmfiSearchResult
{
    ga::GaResult ga;            ///< Full GA record (history, stats).
    em::PulseSpec best_pulse;   ///< Decoded winning pulse.
    EmfiRunOutcome best_outcome; ///< Its replayed outcome.
};

/**
 * Search the pulse grid for the minimal-energy pulse that faults
 * spec.target_slot of the victim. config.kernel_length is forced to
 * kPulseGenomeSlots (the genome encoding's fixed length); all other
 * GA hyper-parameters apply unchanged, including threads (workers
 * clone the platform) and restarts.
 *
 * @throws ConfigError when target_slot is out of the victim's range.
 */
EmfiSearchResult searchMinimalPulse(platform::Platform &plat,
                                    const EmfiCampaignSpec &spec,
                                    const ga::GaConfig &config);

} // namespace core
} // namespace emstress

#endif // EMSTRESS_CORE_EMFI_H
