/**
 * @file
 * Fitness evaluators binding the GA to a simulated platform, plus the
 * in-process TargetConnection implementation. Three metrics, matching
 * the paper: maximum EM amplitude in the 1st-order resonance band
 * (the novel contribution) and, where direct voltage visibility
 * exists, maximum droop and peak-to-peak voltage (the baselines used
 * for validation and for the a72OC-DSO / amdOsc viruses).
 *
 * All three evaluators are *order-independent*: measurement noise is
 * seeded from the evaluated kernel's structural hash (mixed with the
 * platform seed), so a kernel's fitness depends only on the kernel —
 * never on how many measurements ran before it. That property makes
 * the GA's fitness memoization lossless and its parallel batch
 * evaluation bit-identical to the serial path. They are also
 * *cloneable*: clone() replicates the bound platform so each worker
 * thread simulates on its own PDN engine and instruments.
 */

#ifndef EMSTRESS_CORE_FITNESS_H
#define EMSTRESS_CORE_FITNESS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dsp/goertzel.h"
#include "ga/fault_injector.h"
#include "ga/ga_engine.h"
#include "ga/target_connection.h"
#include "platform/platform.h"
#include "util/faultpoint.h"
#include "util/units.h"

namespace emstress {
namespace core {

/** Shared evaluation settings. */
struct EvalSettings
{
    double duration_s = 4e-6;     ///< Steady-state window per run.
    double f_lo_hz = mega(50.0);        ///< EM search band start (paper:
                                  ///< 50-200 MHz, the 1st-order range).
    double f_hi_hz = mega(200.0);       ///< EM search band end.
    std::size_t sa_samples = 30;  ///< Spectrum samples per individual.
    std::size_t active_cores = 0; ///< 0 = all powered cores.
};

/// Per-metric noise salts: the same kernel measured through
/// different instruments must not see correlated noise. Public so a
/// test oracle can draw the evaluators' exact noise streams.
inline constexpr std::uint64_t kEmNoiseSalt = 0x454d5f414d504cull;
inline constexpr std::uint64_t kDroopNoiseSalt = 0x44524f4f50ull;
inline constexpr std::uint64_t kP2pNoiseSalt = 0x5032505full;

/**
 * Common base of the platform-bound evaluators: holds the platform
 * (by reference, or owned when the evaluator is a clone), derives
 * the per-kernel noise stream and runs the one streaming measurement
 * every evaluator shares. Optionally binds a FaultInjector: the
 * measurement then consults it at the chain's fault points and
 * throws FaultError on scheduled faults, which the GA's batch
 * evaluator retries. Aborted attempts leave no platform state behind
 * (noise streams are per-evaluation locals and the PDN engine cache
 * is geometry-keyed), so the retried measurement is bit-identical to
 * an unfaulted one.
 */
class PlatformFitness : public ga::FitnessEvaluator
{
  public:
    /**
     * Install (or clear, with nullptr) a fault injector. Shared
     * across clone(): all workers of a parallel batch report into
     * the same injection counters.
     */
    void
    setFaultInjector(std::shared_ptr<ga::FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

  protected:
    PlatformFitness(platform::Platform &plat,
                    const EvalSettings &settings)
        : plat_(&plat), settings_(settings)
    {}

    /** Clone constructor: takes ownership of a platform replica. */
    PlatformFitness(std::shared_ptr<platform::Platform> owned,
                    const EvalSettings &settings)
        : plat_(owned.get()), owned_(std::move(owned)),
          settings_(settings)
    {}

    /** The bound platform. */
    platform::Platform &plat() const { return *plat_; }

    /**
     * Measurement-noise stream for one kernel: a pure function of
     * the kernel genome, the platform seed and a per-metric salt.
     */
    Rng noiseFor(const isa::Kernel &kernel,
                 std::uint64_t salt) const
    {
        return Rng(mixSeed(kernel.hash() ^ salt, plat_->seed()));
    }

    /** Injected-fault check: no-op without an injector. */
    void
    faultAt(FaultPoint point, std::uint64_t key,
            std::uint32_t attempt, double cost_seconds) const
    {
        if (injector_)
            injector_->at(point, key, attempt, cost_seconds);
    }

    /** Platform tap an instrument observes. */
    enum class Tap
    {
        DieVoltage, ///< Scope (OC-DSO / Kelvin pads): triggered.
        Antenna,    ///< Spectrum analyzer: free-running.
    };

    /** Builds a run's instrument sink once its plan is known. */
    using SinkFactory =
        std::function<SampleSink &(const platform::StreamPlan &)>;

    /**
     * Stream one run of `kernel` into the instrument sink that
     * `make_sink` builds, never buffering a full-rate waveform. The
     * fault points fire in chain order: connection timeout and
     * kernel hang, then (for the triggered scope tap) trigger miss,
     * then a TruncatedStream fault, which interposes a TruncatingSink
     * that unwinds the stream at a schedule-drawn cutoff and charges
     * that fraction of `measure_s` plus the timeout.
     *
     * @param measure_s Modeled lab seconds of the full measurement.
     */
    void streamMeasurement(const isa::Kernel &kernel,
                           std::uint32_t attempt, Tap tap,
                           double measure_s,
                           const SinkFactory &make_sink) const;

    platform::Platform *plat_;
    std::shared_ptr<platform::Platform> owned_;
    EvalSettings settings_;
    ga::ConnectionLatency latency_;
    std::shared_ptr<ga::FaultInjector> injector_;
};

/**
 * EM-amplitude fitness (paper Section 3.1(b)): the RMS over
 * `sa_samples` sweeps of the maximum EM amplitude anywhere within
 * [f_lo, f_hi]. Fitness unit: dBm (monotone in received power).
 */
class EmAmplitudeFitness : public PlatformFitness
{
  public:
    EmAmplitudeFitness(platform::Platform &plat,
                       const EvalSettings &settings);

    double evaluate(const isa::Kernel &kernel,
                    ga::EvalDetail *detail) override;
    double evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail,
                    std::uint32_t attempt) override;

    std::string metricName() const override { return "em-amplitude"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    EmAmplitudeFitness(std::shared_ptr<platform::Platform> owned,
                       const EvalSettings &settings)
        : PlatformFitness(std::move(owned), settings)
    {}

    // Cached Goertzel bank for the streaming detector: every
    // evaluation of this instance shares one capture geometry, and
    // building a bank costs a full pass of the recurrence. Clones
    // build their own (each worker thread owns its evaluator, so no
    // synchronization is needed).
    std::unique_ptr<dsp::GoertzelBank> bank_;
    std::size_t bank_n_ = 0;
    double bank_rate_hz_ = 0.0;
};

/**
 * Common body of the scope-based evaluators: stream the die voltage
 * into the platform's scope front end (only the bounded record is
 * buffered) and score the capture. Subclasses pick the noise salt
 * and the statistic.
 * @throws ConfigError at construction when the platform has no
 *         voltage visibility.
 */
class ScopeFitness : public PlatformFitness
{
  public:
    double evaluate(const isa::Kernel &kernel,
                    ga::EvalDetail *detail) override;
    double evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail,
                    std::uint32_t attempt) override;

  protected:
    ScopeFitness(platform::Platform &plat, const EvalSettings &settings,
                 std::uint64_t noise_salt);

    /** Clone constructor. */
    ScopeFitness(std::shared_ptr<platform::Platform> owned,
                 const EvalSettings &settings, std::uint64_t noise_salt)
        : PlatformFitness(std::move(owned), settings),
          noise_salt_(noise_salt)
    {}

    /** The fitness of one finished capture. */
    virtual double
    statistic(const instruments::ScopeCaptureSink &capture) const = 0;

  private:
    std::uint64_t noise_salt_;
};

/**
 * Maximum-droop fitness through the platform's scope (OC-DSO or
 * Kelvin pads). Fitness unit: volts of droop below nominal.
 */
class MaxDroopFitness : public ScopeFitness
{
  public:
    MaxDroopFitness(platform::Platform &plat,
                    const EvalSettings &settings)
        : ScopeFitness(plat, settings, kDroopNoiseSalt)
    {}

    std::string metricName() const override { return "max-droop"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    MaxDroopFitness(std::shared_ptr<platform::Platform> owned,
                    const EvalSettings &settings)
        : ScopeFitness(std::move(owned), settings, kDroopNoiseSalt)
    {}

    double statistic(
        const instruments::ScopeCaptureSink &capture) const override;
};

/** Peak-to-peak voltage fitness through the platform's scope. */
class PeakToPeakFitness : public ScopeFitness
{
  public:
    PeakToPeakFitness(platform::Platform &plat,
                      const EvalSettings &settings)
        : ScopeFitness(plat, settings, kP2pNoiseSalt)
    {}

    std::string metricName() const override { return "peak-to-peak"; }

    std::unique_ptr<ga::FitnessEvaluator> clone() const override;

  private:
    PeakToPeakFitness(std::shared_ptr<platform::Platform> owned,
                      const EvalSettings &settings)
        : ScopeFitness(std::move(owned), settings, kP2pNoiseSalt)
    {}

    double statistic(
        const instruments::ScopeCaptureSink &capture) const override;
};

/**
 * In-process implementation of the workstation-to-target loop: the
 * "target" is the simulated platform; deploy/compile/run/terminate
 * book-keep state and lab-time, and measureEm produces the antenna
 * waveform. Supports fault injection for robustness tests.
 */
class InProcessTarget : public ga::TargetConnection
{
  public:
    InProcessTarget(platform::Platform &plat,
                    const EvalSettings &settings);

    void deploy(const isa::Kernel &kernel) override;
    void startRun() override;
    Trace measureEm() override;
    void stopRun() override;
    const ga::ConnectionLatency &latency() const override
    {
        return latency_;
    }
    std::string describe() const override;

    /** Make the next n deploys fail (transport fault injection). */
    void injectDeployFailures(std::size_t n) { inject_failures_ = n; }

    /**
     * Install a schedule-driven fault injector: deploy() can then
     * time out, startRun() hang and measureEm() miss its trigger,
     * each at the schedule's rate with per-verb attempt counters (so
     * an outer retry loop sees fresh draws per retry).
     */
    void
    setFaultInjector(std::shared_ptr<ga::FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

    /** Total modeled lab seconds spent so far. */
    double labSecondsSpent() const { return lab_seconds_; }

  private:
    platform::Platform &plat_;
    EvalSettings settings_;
    ga::ConnectionLatency latency_;
    isa::Kernel deployed_;
    bool has_deployed_ = false;
    bool running_ = false;
    std::size_t inject_failures_ = 0;
    double lab_seconds_ = 0.0;
    std::shared_ptr<ga::FaultInjector> injector_;
    std::uint32_t deploy_attempt_ = 0;
    std::uint32_t start_attempt_ = 0;
    std::uint32_t measure_attempt_ = 0;
};

} // namespace core
} // namespace emstress

#endif // EMSTRESS_CORE_FITNESS_H
