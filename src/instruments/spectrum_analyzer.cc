/**
 * @file
 * Spectrum analyzer implementation.
 */

#include "instruments/spectrum_analyzer.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/metrics.h"
#include "util/units.h"

namespace emstress {
namespace instruments {

namespace {

void
requireValidParams(const SpectrumAnalyzerParams &params)
{
    requireConfig(params.f_stop_hz > params.f_start_hz,
                  "analyzer stop frequency must exceed start");
    requireConfig(params.ref_impedance > 0.0,
                  "reference impedance must be positive");
}

void
requireDisplayBins(bool any)
{
    requireSim(any, "sweep produced no bins inside the display span; "
                    "check sample rate versus f_start/f_stop");
}

/** Keyed-draw counters of one bin (keyedNormal uses 0 and 1). */
constexpr std::uint64_t kGainDraw = 0;
constexpr std::uint64_t kFloorDraw = 2;

} // namespace

SaBandMax
noisyBandMax(const SpectrumAnalyzerParams &params,
             std::span<const double> amps_vrms, std::size_t first_bin,
             double bin_width_hz, std::uint64_t key, std::uint64_t sweep,
             double *levels_dbm)
{
    const double floor_w = dbmToWatts(params.noise_floor_dbm);
    const std::uint64_t sweep_key = mixSeed(key, sweep);
    // Like a marker search over a displayed sweep, only levels above
    // the marker's -200 dBm floor count (a NaN level never does).
    SaBandMax best;
    best.power_w = dbmToWatts(SaMarker{}.power_dbm);
    for (std::size_t i = 0; i < amps_vrms.size(); ++i) {
        const std::size_t k = first_bin + i;
        const std::uint64_t bin_key = mixSeed(sweep_key, k);
        const double gain_db =
            params.gain_error_db * keyedNormal(bin_key, kGainDraw);
        const double p_w =
            voltsRmsToWatts(amps_vrms[i], params.ref_impedance)
                * dbToPowerRatio(gain_db)
            + floor_w * keyedExponential(bin_key, kFloorDraw);
        if (levels_dbm != nullptr)
            levels_dbm[i] = wattsToDbm(std::max(p_w, 1e-30));
        if (p_w > best.power_w) {
            best.freq_hz = bin_width_hz * static_cast<double>(k);
            best.power_w = p_w;
        }
    }
    return best;
}

SpectrumAnalyzer::SpectrumAnalyzer(const SpectrumAnalyzerParams &params,
                                   Rng rng)
    : params_(params), rng_(rng)
{
    requireValidParams(params);
}

SaSweep
SpectrumAnalyzer::sweep(const Trace &v_received)
{
    return noisySweep(dsp::computeSpectrum(v_received, params_.window),
                      rng_);
}

SaSweep
SpectrumAnalyzer::sweep(const Trace &v_received, Rng &noise) const
{
    return noisySweep(dsp::computeSpectrum(v_received, params_.window),
                      noise);
}

SaSweep
SpectrumAnalyzer::noisySweep(const dsp::Spectrum &spec,
                             Rng &noise) const
{
    metrics::Registry::instance().add("instruments.sa.sweeps");
    // The displayed bins are one run of the ascending grid.
    const auto &f = spec.freqs_hz;
    std::size_t first = 0;
    while (first < f.size() && f[first] < params_.f_start_hz)
        ++first;
    std::size_t end = first;
    while (end < f.size() && f[end] <= params_.f_stop_hz)
        ++end;
    requireDisplayBins(end > first);

    SaSweep out;
    out.freqs_hz.assign(spec.freqs_hz.begin() + first,
                        spec.freqs_hz.begin() + end);
    out.power_dbm.resize(end - first);
    noisyBandMax(params_,
                 std::span<const double>(spec.amps_vrms)
                     .subspan(first, end - first),
                 first, spec.binWidth(), noise.bits(), 0,
                 out.power_dbm.data());
    return out;
}

SaBandDetector::SaBandDetector(const SpectrumAnalyzerParams &params,
                               dsp::CapturePlan &plan, double f_lo,
                               double f_hi)
    : params_(params), plan_(plan)
{
    requireValidParams(params);
    requireConfig(plan.fLoHz() == f_lo && plan.fHiHz() == f_hi
                      && plan.window() == params.window,
                  "SaBandDetector plan was built for another band or "
                  "window");
    // The grid must show at least one bin inside the display span.
    const std::size_t half = plan.nfft() / 2;
    std::size_t k = 0;
    while (k < half && plan.gridFreqHz(k) < params.f_start_hz)
        ++k;
    requireDisplayBins(k < half
                       && plan.gridFreqHz(k) <= params.f_stop_hz);
    // The marker searches the displayed part of the plan's band.
    std::size_t i = 0;
    while (i < plan.size()
           && plan.gridFreqHz(plan.binIndex(i)) < params.f_start_hz)
        ++i;
    std::size_t end = i;
    while (end < plan.size()
           && plan.gridFreqHz(plan.binIndex(end)) <= params.f_stop_hz)
        ++end;
    first_bin_ = plan.binIndex(0) + i;
    amps_.resize(end - i);
}

void
SaBandDetector::push(double v)
{
    requireSim(count_ < plan_.inputSize(),
               "SaBandDetector fed more samples than its plan holds");
    plan_.setSample(count_++, v);
}

void
SaBandDetector::finish()
{
    requireSim(count_ == plan_.inputSize(),
               "SaBandDetector finished before the full capture was "
               "pushed");
    plan_.transform();
    for (std::size_t i = 0; i < amps_.size(); ++i)
        amps_[i] = plan_.amplitudeVrms(first_bin_ + i);
    finished_ = true;
}

SaMarker
SaBandDetector::averagedMaxAmplitude(std::size_t n_samples,
                                     Rng &noise) const
{
    requireConfig(n_samples >= 1, "need at least one sample");
    requireSim(finished_, "SaBandDetector read before finish()");
    metrics::Registry::instance().add("instruments.sa.band_evals",
                                      n_samples);
    const std::uint64_t key = noise.bits();
    double sum_sq_w = 0.0;
    std::vector<double> freqs;
    freqs.reserve(n_samples);
    for (std::size_t s = 0; s < n_samples; ++s) {
        const SaBandMax m = noisyBandMax(params_, amps_, first_bin_,
                                         plan_.binWidthHz(), key, s);
        sum_sq_w += m.power_w * m.power_w;
        freqs.push_back(m.freq_hz);
    }
    // RMS in linear power, reported in dBm.
    const double rms_w =
        std::sqrt(sum_sq_w / static_cast<double>(n_samples));
    // Modal peak frequency: the median is robust to occasional
    // noise-floor wins on weak signals.
    std::sort(freqs.begin(), freqs.end());
    SaMarker out;
    out.power_dbm = wattsToDbm(std::max(rms_w, 1e-30));
    out.freq_hz = freqs[freqs.size() / 2];
    return out;
}

SaMarker
SpectrumAnalyzer::maxAmplitude(const SaSweep &sweep, double f_lo,
                               double f_hi)
{
    SaMarker best;
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        const double f = sweep.freqs_hz[k];
        if (f < f_lo || f > f_hi)
            continue;
        if (sweep.power_dbm[k] > best.power_dbm) {
            best.power_dbm = sweep.power_dbm[k];
            best.freq_hz = f;
        }
    }
    return best;
}

SaMarker
SpectrumAnalyzer::averagedMaxAmplitude(const Trace &v_received,
                                       double f_lo, double f_hi,
                                       std::size_t n_samples)
{
    return averagedMaxAmplitude(v_received, f_lo, f_hi, n_samples,
                                rng_);
}

SaMarker
SpectrumAnalyzer::averagedMaxAmplitude(const Trace &v_received,
                                       double f_lo, double f_hi,
                                       std::size_t n_samples,
                                       Rng &noise) const
{
    dsp::CapturePlan plan(v_received.size(), v_received.sampleRate(),
                          f_lo, f_hi, params_.window);
    SaBandDetector det(params_, plan, f_lo, f_hi);
    for (const double v : v_received.samples())
        det.push(v);
    det.finish();
    return det.averagedMaxAmplitude(n_samples, noise);
}

} // namespace instruments
} // namespace emstress
