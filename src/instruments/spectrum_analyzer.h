/**
 * @file
 * Spectrum-analyzer instrument model (Agilent E4402B / N9332C in the
 * paper). Converts a received antenna voltage into a calibrated dBm
 * power spectrum with a thermal noise floor and per-sweep measurement
 * noise, and provides the paper's GA fitness statistic: the RMS of N
 * repeated max-amplitude measurements over a band (Section 3.1 step
 * (b): "the metric used for maximum EM amplitude is the mean root
 * square of 30 samples").
 */

#ifndef EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H
#define EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/spectrum.h"
#include "util/rng.h"
#include "util/sample_sink.h"
#include "util/trace.h"
#include "util/units.h"

namespace emstress {
namespace instruments {

/** Configuration of the spectrum analyzer. */
struct SpectrumAnalyzerParams
{
    double f_start_hz = mega(10.0);       ///< Display start frequency.
    double f_stop_hz = mega(500.0);       ///< Display stop frequency.
    double ref_impedance = 50.0;    ///< Input impedance [ohm].
    double noise_floor_dbm = -97.0; ///< Displayed average noise level.
    double gain_error_db = 0.25;    ///< 1-sigma per-sweep gain ripple.
    dsp::WindowKind window = dsp::WindowKind::Hann; ///< RBW filter.
};

/** One displayed sweep: frequency bins and power levels. */
struct SaSweep
{
    std::vector<double> freqs_hz;
    std::vector<double> power_dbm;

    /** Number of display bins. */
    std::size_t size() const { return freqs_hz.size(); }
};

/** A marker measurement: peak frequency and level. */
struct SaMarker
{
    double freq_hz = 0.0;
    double power_dbm = -200.0;
};

/** A sweep's band maximum in linear power. */
struct SaBandMax
{
    double freq_hz = 0.0;
    double power_w = 0.0; ///< [W]
};

/**
 * One sweep's noisy maximum over consecutive displayed FFT-grid bins:
 * the measurement-noise model every analyzer path shares. Bin k (its
 * FFT index) reads the power
 *
 *     P = P_signal * 10^(g / 10) + floor * E,
 *
 * with per-sweep gain ripple g ~ N(0, gain_error_db) and a noise
 * floor whose Rayleigh-like variation E ~ Exp(1) is half a chi-square
 * with two degrees of freedom. Both come from keyedNormal and
 * keyedExponential on the bin key mixSeed(mixSeed(key, sweep), k), so
 * a level depends only on (key, sweep, k): a full-display sweep and a
 * band detector agree at every bin they share, and a sweep draws only
 * the bins it reads.
 *
 * @param amps_vrms  Signal amplitudes of bins first_bin, first_bin+1...
 * @param levels_dbm When non-null, receives every bin's level.
 * @return The highest bin above the default marker's level (the
 *         lowest frequency wins ties) in linear power; the default
 *         marker's frequency and level when no bin exceeds it.
 */
SaBandMax noisyBandMax(const SpectrumAnalyzerParams &params,
                      std::span<const double> amps_vrms,
                      std::size_t first_bin, double bin_width_hz,
                      std::uint64_t key, std::uint64_t sweep,
                      double *levels_dbm = nullptr);

/**
 * Streaming band-max detector: the SampleSink form of
 * SpectrumAnalyzer::averagedMaxAmplitude (which runs through it). The
 * capture goes into a dsp::CapturePlan's buffer and is transformed by
 * the routine computeSpectrum() runs; only the displayed in-band
 * amplitudes are kept, and noisyBandMax draws noise for those bins
 * alone.
 */
class SaBandDetector final : public SampleSink
{
  public:
    /**
     * @param params     Analyzer settings (display span, noise).
     * @param plan       Plan built for this capture length and sample
     *                   rate, the band [f_lo, f_hi] and params.window.
     *                   The detector captures into the plan's buffer,
     *                   so the plan must outlive it and serve no other
     *                   capture meanwhile.
     * @param f_lo, f_hi Measurement band for the marker search.
     */
    SaBandDetector(const SpectrumAnalyzerParams &params,
                   dsp::CapturePlan &plan, double f_lo, double f_hi);

    SaBandDetector(const SaBandDetector &) = delete;
    SaBandDetector &operator=(const SaBandDetector &) = delete;

    void push(double v) override;

    /** Transform the capture. @pre every sample was pushed. */
    void finish() override;

    /**
     * The paper's RMS-of-N-sweeps statistic: sweep i draws its noise
     * with sweep index i under one key, a single noise.bits() draw.
     * @pre finish() has run.
     */
    SaMarker averagedMaxAmplitude(std::size_t n_samples,
                                  Rng &noise) const;

  private:
    SpectrumAnalyzerParams params_;
    dsp::CapturePlan &plan_;
    std::size_t count_ = 0;
    bool finished_ = false;
    std::size_t first_bin_ = 0; ///< FFT index of amps_[0].
    /// Displayed in-band amplitudes, filled by finish().
    std::vector<double> amps_;
};

/**
 * Spectrum analyzer. Holds its own RNG stream so that measurement
 * noise is reproducible per instrument instance.
 */
class SpectrumAnalyzer
{
  public:
    /** Construct with settings and a seeded noise stream. */
    SpectrumAnalyzer(const SpectrumAnalyzerParams &params, Rng rng);

    /** Settings. */
    const SpectrumAnalyzerParams &params() const { return params_; }

    /**
     * The instrument's internal measurement-noise stream. Streaming
     * detectors draw from it to replicate the non-const batch
     * methods, advancing the state identically (one bits() draw per
     * sweep() or averagedMaxAmplitude() call).
     */
    Rng &noiseStream() { return rng_; }

    /**
     * Acquire one sweep from a received voltage trace. Bins outside
     * [f_start, f_stop] are discarded; every bin is perturbed by gain
     * error and floor noise (noisyBandMax, sweep index 0, keyed by
     * one bits() draw).
     */
    SaSweep sweep(const Trace &v_received);

    /**
     * Like sweep(), but drawing measurement noise from a
     * caller-provided stream instead of the instrument's internal
     * one. Const and reentrant: concurrent measurements stay
     * reproducible when each caller seeds its own stream (e.g. from
     * the measured kernel's hash).
     */
    SaSweep sweep(const Trace &v_received, Rng &noise) const;

    /** Highest-level marker within a band of a sweep. */
    static SaMarker maxAmplitude(const SaSweep &sweep, double f_lo,
                                 double f_hi);

    /**
     * The paper's fitness statistic: perform n_samples sweeps of the
     * same signal (fresh measurement noise each), take the max
     * amplitude in [f_lo, f_hi] per sweep, and return the RMS of the
     * linear amplitudes converted back to dBm, along with the modal
     * peak frequency. Runs the trace through an SaBandDetector, so
     * the batch and streaming statistics are one computation.
     */
    SaMarker averagedMaxAmplitude(const Trace &v_received, double f_lo,
                                  double f_hi, std::size_t n_samples);

    /**
     * Like averagedMaxAmplitude(), with caller-provided measurement
     * noise. Const and reentrant (see sweep() overload).
     */
    SaMarker averagedMaxAmplitude(const Trace &v_received, double f_lo,
                                  double f_hi, std::size_t n_samples,
                                  Rng &noise) const;

  private:
    /** Apply display-span filtering and measurement noise to a
     * precomputed spectrum. */
    SaSweep noisySweep(const dsp::Spectrum &spec, Rng &noise) const;

    SpectrumAnalyzerParams params_;
    Rng rng_;
};

} // namespace instruments
} // namespace emstress

#endif // EMSTRESS_INSTRUMENTS_SPECTRUM_ANALYZER_H
