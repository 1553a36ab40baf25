/**
 * @file
 * Tests for the instrument models: spectrum analyzer, oscilloscope
 * and SCL.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/spectrum.h"
#include "instruments/oscilloscope.h"
#include "instruments/scl.h"
#include "instruments/spectrum_analyzer.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace emstress {
namespace instruments {
namespace {

Trace
sineTrace(double freq, double amp, double fs, std::size_t n,
          double dc = 0.0)
{
    Trace t(1.0 / fs);
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        t.push(dc
               + amp
                   * std::sin(kTwoPi * freq * static_cast<double>(i)
                              / fs));
    }
    return t;
}

TEST(SpectrumAnalyzer, SweepLevelsMatchInputPower)
{
    // -30 dBm into 50 ohm is 10 mW? No: -30 dBm = 1 uW -> Vrms =
    // sqrt(1e-6 * 50) = 7.07 mV -> peak 10 mV.
    SpectrumAnalyzerParams params;
    SpectrumAnalyzer sa(params, Rng(1));
    const double vrms_target = std::sqrt(1e-6 * params.ref_impedance);
    const auto t =
        sineTrace(67e6, vrms_target * std::sqrt(2.0), 4e9, 16384);
    const auto sweep = sa.sweep(t);
    const auto m = SpectrumAnalyzer::maxAmplitude(sweep, 50e6, 90e6);
    EXPECT_NEAR(m.power_dbm, -30.0, 1.5);
    EXPECT_NEAR(m.freq_hz, 67e6, 4e9 / 16384 * 2);
}

TEST(SpectrumAnalyzer, NoiseFloorBoundsQuietSweep)
{
    SpectrumAnalyzerParams params;
    SpectrumAnalyzer sa(params, Rng(2));
    // A tiny signal far below the floor.
    const auto t = sineTrace(67e6, 1e-9, 4e9, 8192);
    const auto sweep = sa.sweep(t);
    const double mean_dbm = stats::mean(sweep.power_dbm);
    EXPECT_NEAR(mean_dbm, params.noise_floor_dbm, 4.0);
}

TEST(SpectrumAnalyzer, SpanFiltersBins)
{
    SpectrumAnalyzerParams params;
    params.f_start_hz = 40e6;
    params.f_stop_hz = 100e6;
    SpectrumAnalyzer sa(params, Rng(3));
    const auto sweep = sa.sweep(sineTrace(67e6, 0.01, 4e9, 8192));
    for (double f : sweep.freqs_hz) {
        EXPECT_GE(f, 40e6);
        EXPECT_LE(f, 100e6);
    }
}

TEST(SpectrumAnalyzer, AveragedMeasurementTighterThanSingle)
{
    // The 30-sample RMS statistic has far lower spread than a single
    // sweep (that's its purpose in the GA, Section 3.1).
    SpectrumAnalyzerParams params;
    params.gain_error_db = 1.0;
    SpectrumAnalyzer sa(params, Rng(4));
    const auto t = sineTrace(67e6, 0.01, 4e9, 8192);

    std::vector<double> singles, averaged;
    for (int i = 0; i < 24; ++i) {
        singles.push_back(
            SpectrumAnalyzer::maxAmplitude(sa.sweep(t), 50e6, 90e6)
                .power_dbm);
        averaged.push_back(
            sa.averagedMaxAmplitude(t, 50e6, 90e6, 30).power_dbm);
    }
    EXPECT_LT(stats::stddev(averaged), stats::stddev(singles));
}

TEST(SpectrumAnalyzer, AveragedMarkerFindsDominantFrequency)
{
    SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(5));
    const auto t = sineTrace(76e6, 0.02, 4e9, 16384);
    const auto m = sa.averagedMaxAmplitude(t, 50e6, 200e6, 10);
    EXPECT_NEAR(m.freq_hz, 76e6, 4e9 / 16384.0 * 2);
}

TEST(SpectrumAnalyzer, BandDetectorMatchesFullSweepAtEveryBin)
{
    // Keyed noise: a level depends only on (key, sweep, bin), so a
    // detector watching one bin reads exactly the level a
    // full-display sweep drew there under the same key.
    SpectrumAnalyzerParams params;
    const SpectrumAnalyzer sa(params, Rng(1));
    const auto t = sineTrace(67e6, 0.01, 4e9, 2000);
    Rng sweep_noise(99);
    const SaSweep full = sa.sweep(t, sweep_noise);
    std::size_t checked = 0;
    for (std::size_t j = 0; j < full.size(); ++j) {
        const double f = full.freqs_hz[j];
        if (f < 50e6 || f > 200e6)
            continue;
        dsp::CapturePlan plan(t.size(), t.sampleRate(), f, f,
                              params.window);
        ASSERT_EQ(plan.size(), 1u);
        SaBandDetector det(params, plan, f, f);
        for (const double v : t.samples())
            det.push(v);
        det.finish();
        Rng noise(99);
        const SaMarker m = det.averagedMaxAmplitude(1, noise);
        EXPECT_EQ(m.power_dbm, full.power_dbm[j]) << f;
        EXPECT_EQ(m.freq_hz, f);
        ++checked;
    }
    EXPECT_GT(checked, 70u);
}

TEST(SpectrumAnalyzer, NoiseModelDistributionOverManyBins)
{
    SpectrumAnalyzerParams params;
    SpectrumAnalyzer sa(params, Rng(6));
    const double fs = 4e9;
    const std::size_t n = 16384;
    constexpr std::size_t kBins = 100000;

    // Floor only: a silent input reads floor * Exp(1), mean floor.
    const Trace quiet(std::vector<double>(n, 0.0), 1.0 / fs);
    double sum_w = 0.0;
    std::size_t bins = 0;
    while (bins < kBins) {
        for (const double dbm : sa.sweep(quiet).power_dbm) {
            sum_w += dbmToWatts(dbm);
            ++bins;
        }
    }
    const double floor_w = dbmToWatts(params.noise_floor_dbm);
    EXPECT_NEAR(sum_w / static_cast<double>(bins) / floor_w, 1.0,
                0.02);

    // Gain ripple only: an impulse is flat across the display span,
    // and a floor 140 dB below it leaves each level's offset from
    // the clean spectrum equal to the sweep's ripple draw.
    params.noise_floor_dbm = -200.0;
    SpectrumAnalyzer ripple(params, Rng(7));
    std::vector<double> impulse(n, 0.0);
    impulse[n / 2] = 1.0;
    const Trace pulse(impulse, 1.0 / fs);
    const dsp::Spectrum clean = dsp::computeSpectrum(pulse, params.window);
    std::vector<double> gain_db;
    gain_db.reserve(kBins + 4096);
    while (gain_db.size() < kBins) {
        const SaSweep sw = ripple.sweep(pulse);
        std::size_t k = 0;
        while (clean.freqs_hz[k] != sw.freqs_hz[0])
            ++k;
        for (std::size_t j = 0; j < sw.size(); ++j, ++k) {
            const double signal_dbm = wattsToDbm(voltsRmsToWatts(
                clean.amps_vrms[k], params.ref_impedance));
            gain_db.push_back(sw.power_dbm[j] - signal_dbm);
        }
    }
    EXPECT_NEAR(stats::mean(gain_db), 0.0, 0.01);
    EXPECT_NEAR(stats::stddev(gain_db) / params.gain_error_db, 1.0,
                0.02);
}

TEST(SpectrumAnalyzer, ValidatesConfig)
{
    SpectrumAnalyzerParams bad;
    bad.f_stop_hz = bad.f_start_hz;
    EXPECT_THROW(SpectrumAnalyzer sa(bad, Rng(1)), ConfigError);

    SpectrumAnalyzer sa(SpectrumAnalyzerParams{}, Rng(1));
    const auto t = sineTrace(67e6, 0.01, 4e9, 4096);
    EXPECT_THROW((void)sa.averagedMaxAmplitude(t, 50e6, 90e6, 0),
                 ConfigError);
}

TEST(Oscilloscope, CapturePreservesWaveformShape)
{
    Oscilloscope scope(ocDsoParams(), Rng(7));
    const auto t = sineTrace(10e6, 0.05, 4e9, 40000, 1.0);
    const auto cap = scope.capture(t);
    EXPECT_DOUBLE_EQ(cap.dt(), 1.0 / ocDsoParams().sample_rate_hz);
    // 10 MHz passes the 700 MHz front end unattenuated.
    EXPECT_NEAR(Oscilloscope::peakToPeak(cap), 0.10, 0.012);
    EXPECT_NEAR(stats::mean(cap.samples()), 1.0, 0.01);
}

TEST(Oscilloscope, BandwidthAttenuatesFastSignals)
{
    auto params = ocDsoParams();
    params.bandwidth_hz = 100e6;
    Oscilloscope scope(params, Rng(8));
    const auto slow = scope.capture(sineTrace(10e6, 0.05, 4e9, 40000));
    const auto fast =
        scope.capture(sineTrace(400e6, 0.05, 4e9, 40000));
    EXPECT_LT(Oscilloscope::peakToPeak(fast),
              0.5 * Oscilloscope::peakToPeak(slow));
}

TEST(Oscilloscope, QuantizationStepMatchesBits)
{
    auto params = ocDsoParams();
    params.noise_v_rms = 0.0;
    params.bits = 8;
    params.full_scale_v = 2.56; // LSB = 10 mV
    Oscilloscope scope(params, Rng(9));
    const auto cap = scope.capture(sineTrace(5e6, 0.03, 4e9, 40000));
    for (std::size_t i = 0; i < cap.size(); ++i) {
        const double quotient = cap[i] / 0.01;
        EXPECT_NEAR(quotient, std::round(quotient), 1e-6);
    }
}

TEST(Oscilloscope, MaxDroopAndP2p)
{
    Trace t({1.0, 0.95, 0.98, 1.02, 0.97}, 1e-9);
    EXPECT_NEAR(Oscilloscope::maxDroop(t, 1.0), 0.05, 1e-12);
    EXPECT_NEAR(Oscilloscope::peakToPeak(t), 0.07, 1e-12);
}

TEST(Oscilloscope, FftViewFindsNoiseFrequency)
{
    Oscilloscope scope(ocDsoParams(), Rng(10));
    const auto cap =
        scope.capture(sineTrace(67e6, 0.02, 4e9, 40000, 0.9));
    const auto spec = Oscilloscope::fftView(cap);
    const auto pk = dsp::maxPeakInBand(spec, 40e6, 100e6);
    EXPECT_NEAR(pk.freq_hz, 67e6, 2 * spec.binWidth());
}

TEST(Oscilloscope, KelvinScopeIsNoisier)
{
    EXPECT_GT(kelvinScopeParams().noise_v_rms,
              ocDsoParams().noise_v_rms);
    EXPECT_LT(kelvinScopeParams().bandwidth_hz,
              ocDsoParams().bandwidth_hz);
}

TEST(Oscilloscope, ValidatesConfig)
{
    auto bad = ocDsoParams();
    bad.bits = 2;
    EXPECT_THROW(Oscilloscope s(bad, Rng(1)), ConfigError);
    bad = ocDsoParams();
    bad.sample_rate_hz = 0.0;
    EXPECT_THROW(Oscilloscope s(bad, Rng(1)), ConfigError);
}

TEST(Scl, SquareWaveShape)
{
    SyntheticCurrentLoad scl(0.5, 0.5);
    const auto wave = scl.waveform(10e6);
    const double period = 1e-7;
    EXPECT_DOUBLE_EQ(wave(0.0), 0.5);
    EXPECT_DOUBLE_EQ(wave(0.24 * period), 0.5);
    EXPECT_DOUBLE_EQ(wave(0.51 * period), 0.0);
    EXPECT_DOUBLE_EQ(wave(0.99 * period), 0.0);
    EXPECT_DOUBLE_EQ(wave(1.26 * period), 0.5);
}

TEST(Scl, DutyCycleRespected)
{
    SyntheticCurrentLoad scl(1.0, 0.25);
    const auto wave = scl.waveform(1e6);
    int high = 0;
    const int n = 1000;
    for (int i = 0; i < n; ++i)
        if (wave(static_cast<double>(i) * 1e-9) > 0.5)
            ++high;
    EXPECT_NEAR(static_cast<double>(high) / n, 0.25, 0.02);
}

TEST(Scl, ValidatesInput)
{
    EXPECT_THROW(SyntheticCurrentLoad s(0.0), ConfigError);
    EXPECT_THROW(SyntheticCurrentLoad s(1.0, 0.0), ConfigError);
    EXPECT_THROW(SyntheticCurrentLoad s(1.0, 1.0), ConfigError);
    SyntheticCurrentLoad scl(1.0);
    EXPECT_THROW((void)scl.waveform(0.0), ConfigError);
}

} // namespace
} // namespace instruments
} // namespace emstress
