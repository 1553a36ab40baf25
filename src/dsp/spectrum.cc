/**
 * @file
 * Spectrum computation implementation.
 */

#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/fft.h"
#include "util/error.h"

namespace emstress {
namespace dsp {

CapturePlan::CapturePlan(std::size_t n, double sample_rate_hz,
                         double f_lo, double f_hi, WindowKind window)
    : kind_(window), window_(makeWindow(window, n)),
      buffer_(nextPowerOfTwo(std::max<std::size_t>(n, 1))),
      f_lo_(f_lo), f_hi_(f_hi)
{
    requireConfig(n >= 4, "CapturePlan needs at least 4 samples");
    requireConfig(sample_rate_hz > 0.0,
                  "CapturePlan sample rate must be positive");
    requireConfig(f_hi >= f_lo, "CapturePlan band is inverted");

    // Coherent gain from the cached window: the same left-to-right
    // sum coherentGain() runs, without rebuilding the window.
    double wsum = 0.0;
    for (const double w : window_)
        wsum += w;
    const double gain = wsum / static_cast<double>(n);
    // Calibration: a sinusoid of peak amplitude A contributes
    // |X[k]| = A * n * gain / 2 in its bin, so RMS amplitude
    // A/sqrt(2) = |X[k]| * sqrt(2) / (n * gain).
    scale_ = std::sqrt(2.0) / (static_cast<double>(n) * gain);
    df_ = sample_rate_hz / static_cast<double>(nfft());

    // The grid is monotone in k, so the in-band bins are one run.
    const std::size_t half = nfft() / 2;
    std::size_t k = 0;
    while (k < half && gridFreqHz(k) < f_lo)
        ++k;
    band_first_ = k;
    while (k < half && gridFreqHz(k) <= f_hi)
        ++k;
    band_size_ = k - band_first_;
}

void
CapturePlan::transform()
{
    const std::size_t n = inputSize();
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += buffer_[i].real();
    const double mean = sum / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        buffer_[i] = std::complex<double>(
            (buffer_[i].real() - mean) * window_[i], 0.0);
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(n),
              buffer_.end(), std::complex<double>());
    fftInPlace(buffer_, false);
}

Spectrum
computeSpectrum(const Trace &trace, WindowKind window)
{
    requireConfig(trace.size() >= 4,
                  "computeSpectrum needs at least 4 samples");
    // Every bin of the one-sided grid is "in band".
    CapturePlan plan(trace.size(), trace.sampleRate(), 0.0,
                     std::numeric_limits<double>::infinity(), window);
    for (std::size_t i = 0; i < trace.size(); ++i)
        plan.setSample(i, trace[i]);
    plan.transform();

    Spectrum out;
    out.freqs_hz.resize(plan.size());
    out.amps_vrms.resize(plan.size());
    for (std::size_t k = 0; k < plan.size(); ++k) {
        out.freqs_hz[k] = plan.gridFreqHz(k);
        out.amps_vrms[k] = plan.amplitudeVrms(k);
    }
    return out;
}

namespace {

/**
 * Parabolic refinement of a peak at bin k using its neighbours.
 * Returns the fractional bin offset in [-0.5, 0.5].
 */
double
parabolicOffset(const Spectrum &s, std::size_t k)
{
    if (k == 0 || k + 1 >= s.size())
        return 0.0;
    const double a = s.amps_vrms[k - 1];
    const double b = s.amps_vrms[k];
    const double c = s.amps_vrms[k + 1];
    const double denom = a - 2.0 * b + c;
    if (std::abs(denom) < 1e-30)
        return 0.0;
    double off = 0.5 * (a - c) / denom;
    return std::clamp(off, -0.5, 0.5);
}

} // namespace

Peak
maxPeakInBand(const Spectrum &spectrum, double f_lo, double f_hi)
{
    Peak best;
    bool found = false;
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
        const double f = spectrum.freqs_hz[k];
        if (f < f_lo || f > f_hi)
            continue;
        if (!found || spectrum.amps_vrms[k] > best.amp_vrms) {
            best.bin = k;
            best.amp_vrms = spectrum.amps_vrms[k];
            found = true;
        }
    }
    if (!found)
        return Peak{};
    const double off = parabolicOffset(spectrum, best.bin);
    best.freq_hz = spectrum.freqs_hz[best.bin]
        + off * spectrum.binWidth();
    return best;
}

std::vector<Peak>
findPeaks(const Spectrum &spectrum, double f_lo, double f_hi,
          std::size_t max_peaks, double min_amp_vrms)
{
    std::vector<Peak> peaks;
    for (std::size_t k = 1; k + 1 < spectrum.size(); ++k) {
        const double f = spectrum.freqs_hz[k];
        if (f < f_lo || f > f_hi)
            continue;
        const double a = spectrum.amps_vrms[k];
        if (a <= min_amp_vrms)
            continue;
        if (a < spectrum.amps_vrms[k - 1]
            || a < spectrum.amps_vrms[k + 1]) {
            continue;
        }
        Peak p;
        p.bin = k;
        p.amp_vrms = a;
        p.freq_hz = f + parabolicOffset(spectrum, k) * spectrum.binWidth();
        peaks.push_back(p);
    }
    // Equal amplitudes keep ascending bin order, so the kept peaks do
    // not depend on the library's sort.
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak &x, const Peak &y) {
                  return x.amp_vrms != y.amp_vrms ? x.amp_vrms > y.amp_vrms
                                                  : x.bin < y.bin;
              });
    if (peaks.size() > max_peaks)
        peaks.resize(max_peaks);
    return peaks;
}

} // namespace dsp
} // namespace emstress
