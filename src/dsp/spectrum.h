/**
 * @file
 * Power-spectrum computation and peak analysis over Traces. This is
 * the math layer underneath the SpectrumAnalyzer instrument model and
 * the FFT view of the on-chip DSO.
 */

#ifndef EMSTRESS_DSP_SPECTRUM_H
#define EMSTRESS_DSP_SPECTRUM_H

#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/window.h"
#include "util/trace.h"

namespace emstress {
namespace dsp {

/**
 * A one-sided amplitude spectrum: bin frequencies plus the RMS
 * amplitude (volts) of the signal content at each bin.
 */
struct Spectrum
{
    std::vector<double> freqs_hz;  ///< Bin center frequencies.
    std::vector<double> amps_vrms; ///< Calibrated RMS amplitude per bin.

    /** Number of bins. */
    std::size_t size() const { return freqs_hz.size(); }

    /** Frequency spacing between adjacent bins. @pre size() >= 2. */
    double binWidth() const { return freqs_hz[1] - freqs_hz[0]; }
};

/** A located spectral peak. */
struct Peak
{
    double freq_hz = 0.0;   ///< Interpolated peak frequency.
    double amp_vrms = 0.0;  ///< Peak RMS amplitude.
    std::size_t bin = 0;    ///< Index of the hosting bin.
};

/**
 * The spectral front end of one capture geometry: the window, the
 * calibration, the FFT-grid bins inside one band, and a zero-padded
 * complex buffer the capture is written into. Write the n raw samples
 * with setSample(), then transform() mean-removes, windows and
 * transforms the buffer in place; amplitudeVrms() reads any bin.
 *
 * computeSpectrum() and the streaming SaBandDetector both run this
 * one routine, so the streaming and batch spectra agree bit for bit.
 * Build a plan once per (n, sample rate, band, window) and reuse it
 * for every capture of that geometry. The buffer serves one capture
 * at a time: give each concurrent measurement its own plan.
 */
class CapturePlan
{
  public:
    /**
     * @param n              Samples per capture.
     * @param sample_rate_hz Capture sample rate.
     * @param f_lo, f_hi     Band of interest: the grid bins f_k =
     *                       (sample_rate / nfft) * k, k < nfft / 2,
     *                       with f_lo <= f_k <= f_hi.
     * @param window         Window shape for leakage control.
     */
    CapturePlan(std::size_t n, double sample_rate_hz, double f_lo,
                double f_hi, WindowKind window);

    /** Samples per capture. */
    std::size_t inputSize() const { return window_.size(); }

    /** Zero-padded FFT length (the next power of two). */
    std::size_t nfft() const { return buffer_.size(); }

    /** Bin spacing [Hz], identical to Spectrum::binWidth(). */
    double binWidthHz() const { return df_; }

    /** Window shape the plan applies. */
    WindowKind window() const { return kind_; }

    /** Band the plan was built for [Hz]. */
    double fLoHz() const { return f_lo_; }
    double fHiHz() const { return f_hi_; }

    /** Number of grid bins inside the band. */
    std::size_t size() const { return band_size_; }

    /** FFT index of in-band bin i (in-band bins are contiguous). */
    std::size_t binIndex(std::size_t i) const { return band_first_ + i; }

    /** Grid frequency of FFT bin k [Hz]. */
    double
    gridFreqHz(std::size_t k) const
    {
        return df_ * static_cast<double>(k);
    }

    /** Store raw capture sample i (i < inputSize()). */
    void
    setSample(std::size_t i, double v)
    {
        buffer_[i] = std::complex<double>(v, 0.0);
    }

    /**
     * Mean-remove, window, zero-pad and FFT the captured samples in
     * place. @pre every sample was set since the last transform.
     */
    void transform();

    /**
     * Calibrated RMS amplitude of FFT bin k after transform(): a pure
     * sinusoid of RMS amplitude A yields A in its bin regardless of
     * the window. The DC bin reads 0 (the mean was removed).
     */
    double
    amplitudeVrms(std::size_t k) const
    {
        return k == 0 ? 0.0 : std::abs(buffer_[k]) * scale_;
    }

  private:
    WindowKind kind_;
    std::vector<double> window_;
    std::vector<std::complex<double>> buffer_;
    double df_;
    double scale_; ///< sqrt(2) / (n * coherent_gain).
    double f_lo_;
    double f_hi_;
    std::size_t band_first_ = 0;
    std::size_t band_size_ = 0;
};

/**
 * Compute the one-sided amplitude spectrum of a trace.
 *
 * The trace is mean-removed (spectrum analyzers are AC coupled for
 * this purpose), windowed, zero-padded to a power of two, transformed,
 * and calibrated: a pure sinusoid of RMS amplitude A yields a bin with
 * amps_vrms == A regardless of the window.
 *
 * @param trace  Input signal.
 * @param window Window shape for leakage control.
 */
Spectrum computeSpectrum(const Trace &trace,
                         WindowKind window = WindowKind::Hann);

/**
 * Find the single strongest peak within [f_lo, f_hi]. Peak frequency
 * is refined with quadratic (parabolic) interpolation over the
 * neighbouring bins.
 * @return Peak with amp_vrms == 0 when the band holds no bins.
 */
Peak maxPeakInBand(const Spectrum &spectrum, double f_lo, double f_hi);

/**
 * Find up to max_peaks local maxima in [f_lo, f_hi] sorted by
 * descending amplitude. A bin qualifies when it exceeds both
 * neighbours and min_amp_vrms.
 */
std::vector<Peak> findPeaks(const Spectrum &spectrum, double f_lo,
                            double f_hi, std::size_t max_peaks,
                            double min_amp_vrms = 0.0);

} // namespace dsp
} // namespace emstress

#endif // EMSTRESS_DSP_SPECTRUM_H
