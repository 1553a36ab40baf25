#include "core/emfi.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/error.h"
#include "util/sample_sink.h"

namespace emstress {
namespace core {

namespace {

/** Margin scale of the approach-gradient regime [V]. */
constexpr double kMarginScale = 0.05;

/**
 * Restores a platform's pulse-arm state on scope exit, so a faulting
 * analysis (or a throwing observer) never leaks an armed pulse into
 * subsequent runs.
 */
class PulseArmGuard
{
  public:
    explicit PulseArmGuard(platform::Platform &plat)
        : plat_(plat), saved_(plat.armedPulse())
    {}

    PulseArmGuard(const PulseArmGuard &) = delete;
    PulseArmGuard &operator=(const PulseArmGuard &) = delete;

    ~PulseArmGuard()
    {
        if (saved_)
            plat_.armPulse(*saved_);
        else
            plat_.disarmPulse();
    }

  private:
    platform::Platform &plat_;
    std::optional<em::PulseSpec> saved_;
};

} // namespace

EmfiRunOutcome
runEmfiPulse(platform::Platform &plat, const EmfiCampaignSpec &spec,
             const em::PulseSpec &pulse)
{
    requireConfig(!spec.victim.empty(),
                  "EMFI campaign needs a non-empty victim kernel");
    requireConfig(spec.target_slot < spec.victim.size(),
                  "EMFI target_slot outside the victim kernel");

    const em::PulseInjector injector(pulse);

    PulseArmGuard guard(plat);
    plat.armPulse(pulse);
    // The fault model reads only the die voltage: stream that tap
    // alone (same samples as runKernel's v_die, no current trace or
    // antenna coupling).
    TraceSink v_die(platform::kPdnDt);
    const uarch::KernelRunStats stats = plat.streamKernel(
        spec.victim, spec.eval.duration_s,
        [&](const platform::StreamPlan &plan) {
            v_die.reserve(plan.n_samples);
            return platform::StreamObservers{&v_die, nullptr, nullptr};
        },
        spec.eval.active_cores);

    const vmin::FaultEffectsModel model(spec.effects);
    EmfiRunOutcome outcome;
    outcome.pulse = pulse;
    outcome.energy_j = injector.energyJoules();
    outcome.report =
        model.analyze(plat.pool(), spec.victim, v_die.trace(),
                      plat.frequency(), stats, &pulse);
    for (const auto &ev : outcome.report.events)
        outcome.target_faulted |= ev.slot == spec.target_slot;
    outcome.target_margin_v =
        outcome.report.slot_margin_v[spec.target_slot];
    return outcome;
}

double
pulseSearchFitness(const EmfiRunOutcome &outcome,
                   const ga::PulseGrid &grid)
{
    if (outcome.target_faulted) {
        // Energy of the grid's strongest pulse normalizes, so the
        // faulting regime's score is scale-free in the grid bounds.
        const double e_ref =
            std::max(grid.amplitude_max_a * grid.amplitude_max_a
                         * grid.width_max_s,
                     1e-300);
        return 2.0 + 1.0 / (1.0 + outcome.energy_j / e_ref);
    }
    return 1.0
           / (1.0
              + std::max(0.0, outcome.target_margin_v)
                    / kMarginScale);
}

PulseFaultFitness::PulseFaultFitness(platform::Platform &plat,
                                     const EmfiCampaignSpec &spec)
    : PlatformFitness(plat, spec.eval), spec_(spec)
{
    requireConfig(!spec.victim.empty(),
                  "EMFI campaign needs a non-empty victim kernel");
    requireConfig(spec.target_slot < spec.victim.size(),
                  "EMFI target_slot outside the victim kernel");
}

PulseFaultFitness::PulseFaultFitness(
    std::shared_ptr<platform::Platform> owned,
    const EmfiCampaignSpec &spec)
    : PlatformFitness(std::move(owned), spec.eval), spec_(spec)
{}

double
PulseFaultFitness::evaluate(const isa::Kernel &genome,
                            ga::EvalDetail *detail)
{
    const em::PulseSpec pulse =
        ga::decodePulseGenome(spec_.grid, genome);
    const EmfiRunOutcome outcome =
        runEmfiPulse(plat(), spec_, pulse);
    if (detail != nullptr) {
        *detail = {};
        detail->metric_raw = outcome.energy_j;
        detail->measurement_seconds = spec_.eval.duration_s;
    }
    return pulseSearchFitness(outcome, spec_.grid);
}

std::unique_ptr<ga::FitnessEvaluator>
PulseFaultFitness::clone() const
{
    return std::unique_ptr<ga::FitnessEvaluator>(
        new PulseFaultFitness(plat().clone(), spec_));
}

EmfiSearchResult
searchMinimalPulse(platform::Platform &plat,
                   const EmfiCampaignSpec &spec,
                   const ga::GaConfig &config)
{
    ga::GaConfig cfg = config;
    cfg.kernel_length = ga::kPulseGenomeSlots;

    PulseFaultFitness fitness(plat, spec);
    ga::GaEngine engine(plat.pool(), cfg);
    EmfiSearchResult result;
    result.ga = engine.run(fitness);
    result.best_pulse =
        ga::decodePulseGenome(spec.grid, result.ga.best);
    result.best_outcome = runEmfiPulse(plat, spec, result.best_pulse);
    return result;
}

} // namespace core
} // namespace emstress
