/**
 * @file
 * Fitness evaluator implementations.
 */

#include "core/fitness.h"

#include <optional>

#include "dsp/spectrum.h"
#include "util/error.h"

namespace emstress {
namespace core {

namespace {

/** Modeled lab seconds for one individual's measurement. */
double
labSecondsPerIndividual(const ga::ConnectionLatency &lat,
                        std::size_t samples)
{
    return lat.deploy_s + lat.start_stop_s
        + lat.per_sample_s * static_cast<double>(samples);
}

/**
 * Where the sample stream of (key, attempt) truncates: an index in
 * [0, n) when a TruncatedStream fault is scheduled (drawn uniformly
 * from the schedule's parameter stream), n when the stream completes.
 */
std::size_t
truncationCutoff(const ga::FaultInjector *injector, std::uint64_t key,
                 std::uint32_t attempt, std::size_t n)
{
    if (!injector || n == 0)
        return n;
    const FaultSchedule &sched = injector->schedule();
    if (!sched.fires(FaultPoint::TruncatedStream, key, attempt))
        return n;
    const double u = sched.unitDraw(FaultPoint::TruncatedStream, key,
                                    attempt, /*salt=*/1);
    return static_cast<std::size_t>(u * static_cast<double>(n));
}

} // namespace

void
PlatformFitness::streamMeasurement(const isa::Kernel &kernel,
                                   std::uint32_t attempt, Tap tap,
                                   double measure_s,
                                   const SinkFactory &make_sink) const
{
    const std::uint64_t key = kernel.hash();
    // Link-level faults before any simulation work happens.
    faultAt(FaultPoint::ConnectionTimeout, key, attempt,
            latency_.deploy_s + latency_.timeout_s);
    faultAt(FaultPoint::KernelHang, key, attempt,
            latency_.deploy_s + latency_.start_stop_s
                + latency_.timeout_s);
    // The scope can fail to trigger on the run: nothing is captured
    // and the host waits out the trigger timeout.
    if (tap == Tap::DieVoltage) {
        faultAt(FaultPoint::TriggerMiss, key, attempt,
                latency_.deploy_s + latency_.start_stop_s
                    + latency_.timeout_s);
    }
    std::optional<TruncatingSink> trunc;
    plat().streamKernel(
        kernel, settings_.duration_s,
        [&](const platform::StreamPlan &plan) {
            SampleSink *obs = &make_sink(plan);
            const std::size_t n = plan.n_samples;
            const std::size_t cut =
                truncationCutoff(injector_.get(), key, attempt, n);
            if (cut < n) {
                injector_->recordInjected(FaultPoint::TruncatedStream);
                const double frac =
                    static_cast<double>(cut) / static_cast<double>(n);
                trunc.emplace(
                    *obs, cut,
                    FaultError(FaultPoint::TruncatedStream, key,
                               attempt,
                               measure_s * frac + latency_.timeout_s));
                obs = &*trunc;
            }
            return tap == Tap::Antenna
                ? platform::StreamObservers{nullptr, nullptr, obs}
                : platform::StreamObservers{obs, nullptr, nullptr};
        },
        settings_.active_cores);
}

EmAmplitudeFitness::EmAmplitudeFitness(platform::Platform &plat,
                                       const EvalSettings &settings)
    : PlatformFitness(plat, settings)
{
    requireConfig(settings.f_hi_hz > settings.f_lo_hz,
                  "EM band must have positive width");
    requireConfig(settings.duration_s > 0.0,
                  "evaluation duration must be positive");
}

double
EmAmplitudeFitness::evaluate(const isa::Kernel &kernel,
                             ga::EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
EmAmplitudeFitness::evaluate(const isa::Kernel &kernel,
                             ga::EvalDetail *detail,
                             std::uint32_t attempt)
{
    const double measure_s =
        labSecondsPerIndividual(latency_, settings_.sa_samples);
    // The antenna voltage streams into the band detector, which
    // captures into the cached plan's buffer: no trace is built.
    std::optional<instruments::SaBandDetector> det;
    streamMeasurement(
        kernel, attempt, Tap::Antenna, measure_s,
        [&](const platform::StreamPlan &plan) -> SampleSink & {
            const double rate = 1.0 / plan.dt;
            if (!plan_ || plan_->inputSize() != plan.n_samples
                || plan_rate_hz_ != rate) {
                plan_ = std::make_unique<dsp::CapturePlan>(
                    plan.n_samples, rate, settings_.f_lo_hz,
                    settings_.f_hi_hz,
                    plat().analyzer().params().window);
                plan_rate_hz_ = rate;
            }
            return det.emplace(plat().analyzer().params(), *plan_,
                               settings_.f_lo_hz, settings_.f_hi_hz);
        });
    Rng noise = noiseFor(kernel, kEmNoiseSalt);
    const instruments::SaMarker marker =
        det->averagedMaxAmplitude(settings_.sa_samples, noise);
    // The analyzer can return a corrupt marker: the measurement ran
    // to completion, so its full cost is wasted.
    faultAt(FaultPoint::GlitchedReading, kernel.hash(), attempt,
            measure_s);
    if (detail) {
        detail->dominant_freq_hz = marker.freq_hz;
        detail->metric_raw = marker.power_dbm;
        detail->measurement_seconds = measure_s;
        detail->samples_materialized = 0;
    }
    return marker.power_dbm;
}

std::unique_ptr<ga::FitnessEvaluator>
EmAmplitudeFitness::clone() const
{
    auto copy = std::unique_ptr<EmAmplitudeFitness>(
        new EmAmplitudeFitness(
            std::shared_ptr<platform::Platform>(plat().clone()),
            settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

ScopeFitness::ScopeFitness(platform::Platform &plat,
                           const EvalSettings &settings,
                           std::uint64_t noise_salt)
    : PlatformFitness(plat, settings), noise_salt_(noise_salt)
{
    requireConfig(plat.hasVoltageVisibility(),
                  "scope fitness requires direct voltage "
                  "measurement; use EmAmplitudeFitness on "
                      + plat.config().name);
}

double
ScopeFitness::evaluate(const isa::Kernel &kernel,
                       ga::EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
ScopeFitness::evaluate(const isa::Kernel &kernel,
                       ga::EvalDetail *detail, std::uint32_t attempt)
{
    // Scope-based measurement is quicker than 30 SA samples.
    const double measure_s = labSecondsPerIndividual(latency_, 3);
    Rng noise = noiseFor(kernel, noise_salt_);
    std::optional<instruments::ScopeCaptureSink> sink;
    streamMeasurement(
        kernel, attempt, Tap::DieVoltage, measure_s,
        [&](const platform::StreamPlan &plan) -> SampleSink & {
            return sink.emplace(plat().scope().params(),
                                plan.n_samples, plan.dt, noise);
        });
    const double value = statistic(*sink);
    if (detail) {
        const auto spec =
            instruments::Oscilloscope::fftView(sink->capture());
        const auto pk = dsp::maxPeakInBand(spec, settings_.f_lo_hz,
                                           settings_.f_hi_hz);
        detail->dominant_freq_hz = pk.freq_hz;
        detail->metric_raw = value;
        detail->measurement_seconds = measure_s;
        detail->samples_materialized = sink->capture().size();
    }
    return value;
}

double
MaxDroopFitness::statistic(
    const instruments::ScopeCaptureSink &capture) const
{
    return capture.maxDroop(plat().voltage());
}

std::unique_ptr<ga::FitnessEvaluator>
MaxDroopFitness::clone() const
{
    auto copy = std::unique_ptr<MaxDroopFitness>(new MaxDroopFitness(
        std::shared_ptr<platform::Platform>(plat().clone()),
        settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

double
PeakToPeakFitness::statistic(
    const instruments::ScopeCaptureSink &capture) const
{
    return capture.peakToPeak();
}

std::unique_ptr<ga::FitnessEvaluator>
PeakToPeakFitness::clone() const
{
    auto copy =
        std::unique_ptr<PeakToPeakFitness>(new PeakToPeakFitness(
            std::shared_ptr<platform::Platform>(plat().clone()),
            settings_));
    copy->setFaultInjector(injector_);
    return copy;
}

InProcessTarget::InProcessTarget(platform::Platform &plat,
                                 const EvalSettings &settings)
    : plat_(plat), settings_(settings)
{}

void
InProcessTarget::deploy(const isa::Kernel &kernel)
{
    if (inject_failures_ > 0) {
        --inject_failures_;
        throw SimulationError("injected deploy failure to "
                              + describe());
    }
    if (injector_) {
        injector_->atCounted(FaultPoint::ConnectionTimeout,
                             kernel.hash(), deploy_attempt_,
                             latency_.deploy_s + latency_.timeout_s);
    }
    kernel.validate(plat_.pool()); // "compile": reject bad encodings
    deployed_ = kernel;
    has_deployed_ = true;
    lab_seconds_ += latency_.deploy_s;
}

void
InProcessTarget::startRun()
{
    requireSim(has_deployed_, "startRun before deploy");
    if (injector_) {
        injector_->atCounted(FaultPoint::KernelHang, deployed_.hash(),
                             start_attempt_,
                             latency_.start_stop_s
                                 + latency_.timeout_s);
    }
    running_ = true;
    lab_seconds_ += latency_.start_stop_s * 0.5;
}

Trace
InProcessTarget::measureEm()
{
    requireSim(running_, "measureEm while no binary is running");
    if (injector_) {
        injector_->atCounted(FaultPoint::TriggerMiss,
                             deployed_.hash(), measure_attempt_,
                             latency_.per_sample_s
                                 + latency_.timeout_s);
    }
    lab_seconds_ += latency_.per_sample_s;
    return plat_
        .runKernel(deployed_, settings_.duration_s,
                   settings_.active_cores)
        .em;
}

void
InProcessTarget::stopRun()
{
    requireSim(running_, "stopRun while nothing runs");
    running_ = false;
    lab_seconds_ += latency_.start_stop_s * 0.5;
}

std::string
InProcessTarget::describe() const
{
    return "in-process://" + plat_.config().name;
}

} // namespace core
} // namespace emstress
