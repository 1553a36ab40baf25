/**
 * @file
 * EM margin predictor implementation.
 */

#include "core/margin_predictor.h"

#include <cmath>
#include <optional>

#include "dsp/spectrum.h"
#include "instruments/spectrum_analyzer.h"
#include "util/error.h"
#include "util/units.h"

namespace emstress {
namespace core {

namespace {

/** Build the band detector, and the plan it captures into, for a run. */
void
emplaceDetector(platform::Platform &plat, double f_lo_hz,
                double f_hi_hz, const platform::StreamPlan &run,
                std::optional<dsp::CapturePlan> &capture,
                std::optional<instruments::SaBandDetector> &det)
{
    const auto &sa = plat.analyzer().params();
    capture.emplace(run.n_samples, 1.0 / run.dt, f_lo_hz, f_hi_hz,
                    sa.window);
    det.emplace(sa, *capture, f_lo_hz, f_hi_hz);
}

} // namespace

EmMarginPredictor::EmMarginPredictor(platform::Platform &plat,
                                     double f_lo_hz, double f_hi_hz,
                                     double duration_s)
    : plat_(plat), f_lo_hz_(f_lo_hz), f_hi_hz_(f_hi_hz),
      duration_s_(duration_s)
{
    requireConfig(plat.hasVoltageVisibility(),
                  "training the margin predictor needs a platform "
                  "with voltage visibility");
    requireConfig(f_hi_hz > f_lo_hz, "band must have positive width");
    requireConfig(duration_s > 0.0, "duration must be positive");
}

MarginCalibrationPoint
EmMarginPredictor::observeKernel(const isa::Kernel &kernel)
{
    // One streaming run feeds both instruments: the EM tap into a
    // band detector, the die voltage into the scope front end.
    std::optional<dsp::CapturePlan> capture;
    std::optional<instruments::SaBandDetector> det;
    std::optional<instruments::ScopeCaptureSink> scope_sink;
    plat_.streamKernel(
        kernel, duration_s_,
        [&](const platform::StreamPlan &plan) {
            emplaceDetector(plat_, f_lo_hz_, f_hi_hz_, plan, capture, det);
            scope_sink.emplace(plat_.scope().params(), plan.n_samples,
                               plan.dt, plat_.scope().noiseStream());
            return platform::StreamObservers{&*scope_sink, nullptr,
                                             &*det};
        });
    const auto marker = det->averagedMaxAmplitude(
        5, plat_.analyzer().noiseStream());

    MarginCalibrationPoint p;
    // dBm into the analyzer's reference impedance -> linear Vrms.
    p.em_vrms = std::sqrt(
        dbmToWatts(marker.power_dbm)
        * plat_.analyzer().params().ref_impedance);
    p.droop_v = scope_sink->maxDroop(plat_.voltage());
    return p;
}

void
EmMarginPredictor::addKernel(const isa::Kernel &kernel)
{
    points_.push_back(observeKernel(kernel));
    fitted_ = false;
}

void
EmMarginPredictor::addWorkload(
    const workloads::WorkloadProfile &profile,
    std::uint64_t stream_seed)
{
    const double f = plat_.frequency();
    const auto length = static_cast<std::size_t>(
        (duration_s_ + 1e-6) * f
        * static_cast<double>(plat_.config().core.issue_width))
        + 4096;
    Rng rng(stream_seed);
    const auto stream = workloads::generateStream(
        profile, plat_.pool(), length, rng);
    const auto run = plat_.runStream(stream, duration_s_);
    const auto marker = plat_.analyzer().averagedMaxAmplitude(
        run.em, f_lo_hz_, f_hi_hz_, 5);
    const Trace cap = plat_.scope().capture(run.v_die);

    MarginCalibrationPoint p;
    p.em_vrms = std::sqrt(
        dbmToWatts(marker.power_dbm)
        * plat_.analyzer().params().ref_impedance);
    p.droop_v =
        instruments::Oscilloscope::maxDroop(cap, plat_.voltage());
    points_.push_back(p);
    fitted_ = false;
}

MarginModel
EmMarginPredictor::fit()
{
    requireConfig(points_.size() >= 3,
                  "margin-model fit needs at least 3 observations");
    const double n = static_cast<double>(points_.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (const auto &p : points_) {
        sx += p.em_vrms;
        sy += p.droop_v;
        sxx += p.em_vrms * p.em_vrms;
        sxy += p.em_vrms * p.droop_v;
        syy += p.droop_v * p.droop_v;
    }
    const double denom = n * sxx - sx * sx;
    requireSim(std::abs(denom) > 1e-30,
               "degenerate calibration set (identical EM readings)");
    model_.slope = (n * sxy - sx * sy) / denom;
    model_.intercept = (sy - model_.slope * sx) / n;
    // R^2 against the mean model.
    const double mean_y = sy / n;
    double ss_res = 0.0, ss_tot = 0.0;
    for (const auto &p : points_) {
        const double pred =
            model_.slope * p.em_vrms + model_.intercept;
        ss_res += (p.droop_v - pred) * (p.droop_v - pred);
        ss_tot += (p.droop_v - mean_y) * (p.droop_v - mean_y);
    }
    model_.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
    model_.points = points_.size();
    fitted_ = true;
    return model_;
}

const MarginModel &
EmMarginPredictor::model() const
{
    requireSim(fitted_, "margin model not fitted yet");
    return model_;
}

double
EmMarginPredictor::predictDroop(double em_vrms) const
{
    requireSim(fitted_, "margin model not fitted yet");
    return std::max(0.0,
                    model_.slope * em_vrms + model_.intercept);
}

double
EmMarginPredictor::predictDroopForKernel(const isa::Kernel &kernel)
{
    // EM-only path: no scope access, no buffered waveform.
    std::optional<dsp::CapturePlan> capture;
    std::optional<instruments::SaBandDetector> det;
    plat_.streamKernel(
        kernel, duration_s_,
        [&](const platform::StreamPlan &plan) {
            emplaceDetector(plat_, f_lo_hz_, f_hi_hz_, plan, capture, det);
            return platform::StreamObservers{nullptr, nullptr, &*det};
        });
    const auto marker = det->averagedMaxAmplitude(
        5, plat_.analyzer().noiseStream());
    const double em_vrms = std::sqrt(
        dbmToWatts(marker.power_dbm)
        * plat_.analyzer().params().ref_impedance);
    return predictDroop(em_vrms);
}

double
EmMarginPredictor::predictVmin(double em_vrms,
                               const vmin::TimingModel &timing,
                               double f_clk_hz) const
{
    const double droop_nom = predictDroop(em_vrms);
    const double v_nom = plat_.config().v_nom;
    const double v_crit = timing.vCrit(f_clk_hz);
    // Deviation scales with supply: v - droop_nom * (v / v_nom)
    // touches v_crit at v = v_crit / (1 - droop_nom / v_nom).
    const double rel = droop_nom / v_nom;
    requireSim(rel < 0.9, "predicted droop implausibly large");
    return v_crit / (1.0 - rel);
}

double
EmMarginPredictor::measureDroop(const isa::Kernel &kernel)
{
    std::optional<instruments::ScopeCaptureSink> scope_sink;
    plat_.streamKernel(
        kernel, duration_s_,
        [&](const platform::StreamPlan &plan) {
            scope_sink.emplace(plat_.scope().params(), plan.n_samples,
                               plan.dt, plat_.scope().noiseStream());
            return platform::StreamObservers{&*scope_sink, nullptr,
                                             nullptr};
        });
    return scope_sink->maxDroop(plat_.voltage());
}

} // namespace core
} // namespace emstress
