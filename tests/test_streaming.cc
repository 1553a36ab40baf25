/**
 * @file
 * Parity tests for the streaming measurement pipeline: the batch
 * trace path (runKernelBatch, SpectrumAnalyzer::sweep,
 * Oscilloscope::capture) serves as the oracle and the streaming
 * sinks (streamKernel, SaBandDetector, ScopeCaptureSink) must agree
 * with it — exactly for waveforms and scope metrics, to within
 * 1e-6 dB for the Goertzel-vs-FFT band maximum — all the way up to
 * identical GA search results across thread counts. The batch path
 * is a test oracle only: the evaluators always stream, and
 * BatchOracleFitness below rebuilds their measurement from batch
 * traces.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/fitness.h"
#include "core/resonance_explorer.h"
#include "core/virus_generator.h"
#include "dsp/spectrum.h"
#include "ga/ga_engine.h"
#include "instruments/oscilloscope.h"
#include "instruments/spectrum_analyzer.h"
#include "platform/platform.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/sample_sink.h"
#include "util/trace.h"

namespace emstress {
namespace core {
namespace {

EvalSettings
fastEval()
{
    EvalSettings s;
    s.duration_s = 2e-6;
    s.sa_samples = 3;
    return s;
}

ga::GaConfig
fastGa()
{
    ga::GaConfig cfg;
    cfg.population = 10;
    cfg.generations = 6;
    cfg.kernel_length = 30;
    cfg.seed = 5;
    return cfg;
}

void
expectTracesIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a.dt(), b.dt());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "sample " << i;
}

// ---------------------------------------------------------------
// Platform: streaming run vs batch-trace oracle.
// ---------------------------------------------------------------

TEST(StreamingPlatform, RunKernelMatchesBatchOracleExactly)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = plat.runKernelBatch(kernel, 2e-6);
    const auto stream = plat.runKernel(kernel, 2e-6);

    expectTracesIdentical(stream.v_die, batch.v_die);
    expectTracesIdentical(stream.i_die, batch.i_die);
    expectTracesIdentical(stream.em, batch.em);
    EXPECT_EQ(stream.stats.instructions, batch.stats.instructions);
    EXPECT_EQ(stream.stats.cycles, batch.stats.cycles);
}

TEST(StreamingPlatform, PulseArmedRunMatchesBatchOracleExactly)
{
    // The EMFI pulse source feeds the streaming sink and the batch
    // transient through the same waveform evaluated at the same step
    // times, so arming a pulse must not open a stream/batch gap.
    platform::Platform plat(platform::junoA72Config(), 3);
    em::PulseSpec pulse;
    pulse.t0_s = 0.7e-6;
    pulse.width_s = 25e-9;
    pulse.amplitude_a = 18.0;
    pulse.x = 0.35;
    pulse.y = 0.6;
    plat.armPulse(pulse);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = plat.runKernelBatch(kernel, 2e-6);
    const auto stream = plat.runKernel(kernel, 2e-6);

    expectTracesIdentical(stream.v_die, batch.v_die);
    expectTracesIdentical(stream.i_die, batch.i_die);
    expectTracesIdentical(stream.em, batch.em);
}

TEST(StreamingPlatform, ParityHoldsAcrossPlatformsAndCoreCounts)
{
    const platform::PlatformConfig configs[] = {
        platform::junoA72Config(),
        platform::junoA53Config(),
        platform::athlonConfig(),
    };
    for (const auto &cfg : configs) {
        platform::Platform plat(cfg, 7);
        Rng rng(11);
        const auto kernel =
            isa::Kernel::random(plat.pool(), 24, rng);
        for (std::size_t cores = 1; cores <= cfg.n_cores; ++cores) {
            const auto batch =
                plat.runKernelBatch(kernel, 1.5e-6, cores);
            const auto stream =
                plat.runKernel(kernel, 1.5e-6, cores);
            expectTracesIdentical(stream.v_die, batch.v_die);
            expectTracesIdentical(stream.i_die, batch.i_die);
            expectTracesIdentical(stream.em, batch.em);
        }
    }
}

TEST(StreamingPlatform, ObserverFactorySeesRunGeometry)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());

    const auto batch = plat.runKernelBatch(kernel, 2e-6);
    std::size_t planned = 0;
    double plan_dt = 0.0;
    TraceSink v(platform::kPdnDt);
    plat.streamKernel(
        kernel, 2e-6, [&](const platform::StreamPlan &plan) {
            planned = plan.n_samples;
            plan_dt = plan.dt;
            EXPECT_GT(plan.stats.loop_freq_hz, 0.0);
            v.reserve(plan.n_samples);
            return platform::StreamObservers{&v, nullptr, nullptr};
        });
    EXPECT_EQ(planned, batch.v_die.size());
    EXPECT_DOUBLE_EQ(plan_dt, platform::kPdnDt);
    expectTracesIdentical(v.trace(), batch.v_die);
}

// ---------------------------------------------------------------
// Spectrum analyzer: Goertzel band max vs FFT sweep band max.
// ---------------------------------------------------------------

TEST(StreamingInstruments, GoertzelBandMaxMatchesFftSweep)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    // A resonant and an off-resonance capture, like the fig07 corpus.
    const double clocks[] = {560e6, 1.2e9};
    const double f_lo = 50e6, f_hi = 200e6;
    for (double f_clk : clocks) {
        plat.setFrequency(f_clk);
        const auto kernel =
            ResonanceExplorer::probeLoop(plat.pool());
        const auto run = plat.runKernelBatch(kernel, 2e-6);

        instruments::SaBandDetector det(
            plat.analyzer().params(), run.em.size(),
            run.em.sampleRate(), f_lo, f_hi);
        for (double v : run.em.samples())
            det.push(v);
        det.finish();

        // Identical noise streams on both paths.
        Rng noise_batch(77), noise_stream(77);
        const auto batch = plat.analyzer().averagedMaxAmplitude(
            run.em, f_lo, f_hi, 5, noise_batch);
        const auto stream =
            det.averagedMaxAmplitude(5, noise_stream);

        EXPECT_NEAR(stream.power_dbm, batch.power_dbm, 1e-6)
            << "f_clk=" << f_clk;
        EXPECT_DOUBLE_EQ(stream.freq_hz, batch.freq_hz);

        // Single-sweep markers agree too.
        Rng n1(123), n2(123);
        const auto s1 = plat.analyzer().averagedMaxAmplitude(
            run.em, f_lo, f_hi, 1, n1);
        const auto s2 = det.averagedMaxAmplitude(1, n2);
        EXPECT_NEAR(s2.power_dbm, s1.power_dbm, 1e-6);
        EXPECT_DOUBLE_EQ(s2.freq_hz, s1.freq_hz);
    }
}

// ---------------------------------------------------------------
// Oscilloscope: streaming capture vs batch capture.
// ---------------------------------------------------------------

TEST(StreamingInstruments, ScopeCaptureSinkMatchesBatchCapture)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    const auto kernel = ResonanceExplorer::probeLoop(plat.pool());
    const auto run = plat.runKernelBatch(kernel, 2e-6);

    Rng noise_batch(41), noise_stream(41);
    const Trace batch = plat.scope().capture(run.v_die, noise_batch);

    instruments::ScopeCaptureSink sink(
        plat.scope().params(), run.v_die.size(), run.v_die.dt(),
        noise_stream);
    for (double v : run.v_die.samples())
        sink.push(v);
    sink.finish();

    expectTracesIdentical(sink.capture(), batch);
    EXPECT_EQ(sink.maxDroop(plat.voltage()),
              instruments::Oscilloscope::maxDroop(batch,
                                                  plat.voltage()));
    EXPECT_EQ(sink.peakToPeak(),
              instruments::Oscilloscope::peakToPeak(batch));
}

// ---------------------------------------------------------------
// Fitness evaluators vs the batch-trace oracle.
// ---------------------------------------------------------------

/**
 * Batch-trace oracle of the platform evaluators: runKernelBatch,
 * then SpectrumAnalyzer::averagedMaxAmplitude or
 * Oscilloscope::capture, drawing the streaming evaluator's own
 * per-kernel noise stream (noiseFor with the metric's salt) and
 * reporting its lab-time model. Serial only (not cloneable).
 */
class BatchOracleFitness : public PlatformFitness
{
  public:
    BatchOracleFitness(platform::Platform &plat,
                       const EvalSettings &settings,
                       VirusMetric metric)
        : PlatformFitness(plat, settings), metric_(metric)
    {}

    double
    evaluate(const isa::Kernel &kernel, ga::EvalDetail *detail) override
    {
        const auto run = plat().runKernelBatch(
            kernel, settings_.duration_s, settings_.active_cores);
        const std::size_t run_samples =
            run.v_die.size() + run.i_die.size() + run.em.size();
        if (metric_ == VirusMetric::EmAmplitude) {
            Rng noise = noiseFor(kernel, kEmNoiseSalt);
            const auto marker = plat().analyzer().averagedMaxAmplitude(
                run.em, settings_.f_lo_hz, settings_.f_hi_hz,
                settings_.sa_samples, noise);
            if (detail) {
                detail->dominant_freq_hz = marker.freq_hz;
                detail->metric_raw = marker.power_dbm;
                detail->measurement_seconds =
                    labSeconds(settings_.sa_samples);
                detail->samples_materialized = run_samples;
            }
            return marker.power_dbm;
        }
        const bool droop = metric_ == VirusMetric::MaxDroop;
        Rng noise =
            noiseFor(kernel, droop ? kDroopNoiseSalt : kP2pNoiseSalt);
        const Trace cap = plat().scope().capture(run.v_die, noise);
        const double value =
            droop ? instruments::Oscilloscope::maxDroop(cap,
                                                        plat().voltage())
                  : instruments::Oscilloscope::peakToPeak(cap);
        if (detail) {
            const auto pk = dsp::maxPeakInBand(
                instruments::Oscilloscope::fftView(cap),
                settings_.f_lo_hz, settings_.f_hi_hz);
            detail->dominant_freq_hz = pk.freq_hz;
            detail->metric_raw = value;
            detail->measurement_seconds = labSeconds(3);
            detail->samples_materialized = run_samples + cap.size();
        }
        return value;
    }

    std::string metricName() const override { return "batch-oracle"; }

  private:
    double
    labSeconds(std::size_t samples) const
    {
        return latency_.deploy_s + latency_.start_stop_s
            + latency_.per_sample_s * static_cast<double>(samples);
    }

    VirusMetric metric_;
};

TEST(StreamingFitness, EmAmplitudeAgreesWithBatchWithinMicroDb)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    EmAmplitudeFitness streaming(plat, fastEval());
    BatchOracleFitness batch(plat, fastEval(), VirusMetric::EmAmplitude);

    Rng rng(21);
    const isa::Kernel kernels[] = {
        ResonanceExplorer::probeLoop(plat.pool()),
        isa::Kernel::random(plat.pool(), 30, rng),
        isa::Kernel::random(plat.pool(), 30, rng),
    };
    for (const auto &k : kernels) {
        ga::EvalDetail ds, db;
        const double fs = streaming.evaluate(k, &ds);
        const double fb = batch.evaluate(k, &db);
        EXPECT_NEAR(fs, fb, 1e-6);
        EXPECT_DOUBLE_EQ(ds.dominant_freq_hz, db.dominant_freq_hz);
        EXPECT_EQ(ds.measurement_seconds, db.measurement_seconds);
        // The streaming path buffers no full-rate waveform.
        EXPECT_EQ(ds.samples_materialized, 0u);
        EXPECT_GT(db.samples_materialized, 10000u);
    }
}

TEST(StreamingFitness, ScopeMetricsAreBitIdenticalToBatch)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    plat.setFrequency(560e6);
    MaxDroopFitness droop_s(plat, fastEval());
    BatchOracleFitness droop_b(plat, fastEval(), VirusMetric::MaxDroop);
    PeakToPeakFitness p2p_s(plat, fastEval());
    BatchOracleFitness p2p_b(plat, fastEval(), VirusMetric::PeakToPeak);

    Rng rng(22);
    const isa::Kernel kernels[] = {
        ResonanceExplorer::probeLoop(plat.pool()),
        isa::Kernel::random(plat.pool(), 30, rng),
    };
    for (const auto &k : kernels) {
        ga::EvalDetail ds, db;
        // The ZOH + quantize path is exact, so these must agree to
        // the last bit, not merely within 1e-9 V.
        EXPECT_EQ(droop_s.evaluate(k, &ds), droop_b.evaluate(k, &db));
        EXPECT_EQ(ds.dominant_freq_hz, db.dominant_freq_hz);
        EXPECT_EQ(ds.measurement_seconds, db.measurement_seconds);
        EXPECT_LT(ds.samples_materialized, db.samples_materialized);
        EXPECT_EQ(p2p_s.evaluate(k, nullptr),
                  p2p_b.evaluate(k, nullptr));
    }
}

// ---------------------------------------------------------------
// GA: the streaming search matches an oracle-driven search and is
// identical across thread counts.
// ---------------------------------------------------------------

VirusReport
runSearch(VirusMetric metric, std::size_t threads)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    VirusGenerator gen(plat);
    VirusSearchConfig cfg;
    cfg.ga = fastGa();
    cfg.ga.threads = threads;
    cfg.eval = fastEval();
    cfg.metric = metric;
    return gen.search(cfg);
}

/** The same search driven by the batch-trace oracle evaluator. */
ga::GaResult
runOracleSearch(VirusMetric metric)
{
    platform::Platform plat(platform::junoA72Config(), 3);
    BatchOracleFitness oracle(plat, fastEval(), metric);
    ga::GaEngine engine(plat.pool(), fastGa());
    return engine.run(oracle);
}

TEST(StreamingGa, DroopSearchIdenticalAcrossModesAndThreads)
{
    const auto oracle = runOracleSearch(VirusMetric::MaxDroop);
    for (std::size_t threads : {1u, 2u, 8u}) {
        const auto r = runSearch(VirusMetric::MaxDroop, threads);
        EXPECT_EQ(r.virus, oracle.best) << threads << " threads";
        EXPECT_EQ(r.ga.best_fitness, oracle.best_fitness);
        EXPECT_EQ(r.ga.estimated_lab_seconds,
                  oracle.estimated_lab_seconds);
        ASSERT_EQ(r.ga.history.size(), oracle.history.size());
        for (std::size_t g = 0; g < r.ga.history.size(); ++g) {
            EXPECT_EQ(r.ga.history[g].best_fitness,
                      oracle.history[g].best_fitness);
            EXPECT_EQ(r.ga.history[g].mean_fitness,
                      oracle.history[g].mean_fitness);
        }
    }
}

TEST(StreamingGa, EmSearchIdenticalAcrossThreadsAndNearBatch)
{
    const auto serial = runSearch(VirusMetric::EmAmplitude, 1);
    for (std::size_t threads : {2u, 8u}) {
        const auto r = runSearch(VirusMetric::EmAmplitude, threads);
        EXPECT_EQ(r.virus, serial.virus) << threads << " threads";
        EXPECT_EQ(r.ga.best_fitness, serial.ga.best_fitness);
    }
    // Against the batch FFT oracle the Goertzel recurrence differs
    // only in the last bits (~1e-12 relative), far inside the GA's
    // selection margins: same winner, same convergence history to
    // within the 1e-6 dB budget.
    const auto oracle = runOracleSearch(VirusMetric::EmAmplitude);
    EXPECT_EQ(serial.virus, oracle.best);
    EXPECT_NEAR(serial.ga.best_fitness, oracle.best_fitness, 1e-6);
    ASSERT_EQ(serial.ga.history.size(), oracle.history.size());
    for (std::size_t g = 0; g < serial.ga.history.size(); ++g)
        EXPECT_NEAR(serial.ga.history[g].best_fitness,
                    oracle.history[g].best_fitness, 1e-6);
}

// ---------------------------------------------------------------
// Satellite regressions: ZOH length and slice hardening.
// ---------------------------------------------------------------

TEST(TraceRegression, ZohResampleLengthIsIntegerExact)
{
    // 4 us of 1 ns samples onto the 0.25 ns PDN grid: the quotient
    // is exactly 4.0 per sample and the float-floor truncation bug
    // used to drop the final output sample.
    Trace t(1e-9);
    for (std::size_t i = 0; i < 4000; ++i)
        t.push(static_cast<double>(i));
    const Trace r = t.resampleZeroOrderHold(0.25e-9);
    EXPECT_EQ(r.size(), 16000u);
    EXPECT_EQ(r[r.size() - 1], t[t.size() - 1]);

    EXPECT_EQ(Trace::outputLengthFor(4e-6, 0.25e-9), 16000u);
    // A representative awkward ratio that rounds down in binary:
    // 0.3 / 0.1 = 2.9999999999999996 must still snap to 3.
    EXPECT_EQ(Trace::outputLengthFor(0.3, 0.1), 3u);
    // Genuinely fractional ratios still truncate.
    EXPECT_EQ(Trace::outputLengthFor(0.35, 0.1), 3u);
}

TEST(TraceRegression, SliceRejectsOutOfRangeInsteadOfWrapping)
{
    Trace t(1e-9);
    for (std::size_t i = 0; i < 10; ++i)
        t.push(static_cast<double>(i));

    const Trace ok = t.slice(2, 8);
    EXPECT_EQ(ok.size(), 8u);
    EXPECT_EQ(ok[0], 2.0);

    // start + count used to overflow size_t and wrap past the check.
    const auto huge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW((void)t.slice(2, huge), SimulationError);
    EXPECT_THROW((void)t.slice(huge, 2), SimulationError);
    EXPECT_THROW((void)t.slice(11, 0), SimulationError);
    EXPECT_NO_THROW((void)t.slice(10, 0));
}

// ---------------------------------------------------------------
// Sink building blocks.
// ---------------------------------------------------------------

TEST(SampleSinks, ZohResampleSinkMatchesTraceResample)
{
    Trace t(1e-9);
    Rng rng(5);
    for (std::size_t i = 0; i < 1000; ++i)
        t.push(rng.gaussian(0.0, 1.0));
    const Trace batch = t.resampleZeroOrderHold(0.25e-9);

    TraceSink out(0.25e-9);
    ZohResampleSink zoh(out, t.size(), t.dt(), 0.25e-9);
    EXPECT_EQ(zoh.outputSize(), batch.size());
    for (double v : t.samples())
        zoh.push(v);
    zoh.finish();
    expectTracesIdentical(out.trace(), batch);
}

TEST(SampleSinks, SliceAndMeanSinksBehave)
{
    TraceSink out(1.0);
    SliceSink slice(out, 3, 4);
    MeanSink mean;
    FanoutSink fan({&slice, &mean});
    for (std::size_t i = 0; i < 10; ++i)
        fan.push(static_cast<double>(i));
    fan.finish();
    ASSERT_EQ(out.trace().size(), 4u);
    EXPECT_EQ(out.trace()[0], 3.0);
    EXPECT_EQ(out.trace()[3], 6.0);
    EXPECT_EQ(mean.count(), 10u);
    EXPECT_DOUBLE_EQ(mean.mean(), 4.5);
}

// ---------------------------------------------------------------
// Property-style randomized sweeps: for seeded random stream shapes
// (lengths 0, 1, odd, and larger; awkward dt ratios) the streaming
// sinks must agree bit-wise with their batch Trace counterparts.
// ---------------------------------------------------------------

namespace {

/** Random stream length that hits the edge cases often. */
std::size_t
drawLength(Rng &rng)
{
    switch (rng.uniformInt(0, 4)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2 * static_cast<std::size_t>(
                  rng.uniformInt(1, 40)) + 1; // odd
      default:
        return static_cast<std::size_t>(rng.uniformInt(2, 300));
    }
}

Trace
randomTrace(Rng &rng, std::size_t n, double dt)
{
    Trace t(dt);
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        t.push(rng.gaussian(0.0, 1.0));
    return t;
}

} // namespace

TEST(SampleSinkProperties, ZohResampleSinkMatchesBatchOnRandomShapes)
{
    Rng rng(9001);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = drawLength(rng);
        const double dt_in = rng.uniform(0.1e-9, 4e-9);
        // Mix exact-integer ratios (the historical float-floor bug)
        // with genuinely fractional ones.
        const double new_dt = rng.chance(0.5)
            ? dt_in / static_cast<double>(rng.uniformInt(1, 8))
            : rng.uniform(0.05e-9, 6e-9);

        if (n == 0) {
            TraceSink out(new_dt);
            EXPECT_THROW(ZohResampleSink(out, 0, dt_in, new_dt),
                         ConfigError)
                << "iteration " << iter;
            continue;
        }

        const Trace input = randomTrace(rng, n, dt_in);
        const Trace batch = input.resampleZeroOrderHold(new_dt);

        TraceSink out(new_dt);
        ZohResampleSink zoh(out, n, dt_in, new_dt);
        ASSERT_EQ(zoh.outputSize(), batch.size())
            << "iteration " << iter << " n=" << n
            << " dt_in=" << dt_in << " new_dt=" << new_dt;
        for (double v : input.samples())
            zoh.push(v);
        zoh.finish();
        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n
                         << " dt_in=" << dt_in
                         << " new_dt=" << new_dt);
            expectTracesIdentical(out.trace(), batch);
        }
    }
}

TEST(SampleSinkProperties, SliceSinkMatchesClampedBatchSlice)
{
    Rng rng(9002);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = drawLength(rng);
        // Skip/count deliberately overshoot the stream about half
        // the time: SliceSink clamps where Trace::slice would throw,
        // so the oracle is the explicitly clamped slice.
        const auto skip = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) + 3));
        const auto count = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) + 3));

        const Trace input = randomTrace(rng, n, 1e-9);
        const std::size_t clamped_skip = std::min(skip, n);
        const std::size_t clamped_count =
            std::min(count, n - clamped_skip);
        const Trace batch = input.slice(clamped_skip, clamped_count);

        TraceSink out(1e-9);
        SliceSink slice(out, skip, count);
        for (double v : input.samples())
            slice.push(v);
        slice.finish();
        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n
                         << " skip=" << skip << " count=" << count);
            expectTracesIdentical(out.trace(), batch);
        }
    }
}

TEST(SampleSinkProperties, FanoutSinkMatchesIndividualPushes)
{
    Rng rng(9003);
    for (int iter = 0; iter < 100; ++iter) {
        const std::size_t n = drawLength(rng);
        const Trace input = randomTrace(rng, n, 1e-9);

        // Oracle: each sink fed directly.
        TraceSink solo_trace(1e-9);
        MeanSink solo_mean;
        for (double v : input.samples()) {
            solo_trace.push(v);
            solo_mean.push(v);
        }
        solo_trace.finish();
        solo_mean.finish();

        // Streaming: same sinks behind a fanout with null entries
        // interleaved (permitted and skipped per the contract).
        TraceSink fan_trace(1e-9);
        MeanSink fan_mean;
        FanoutSink fan({nullptr, &fan_trace, nullptr, &fan_mean});
        for (double v : input.samples())
            fan.push(v);
        fan.finish();

        {
            SCOPED_TRACE(::testing::Message()
                         << "iteration " << iter << " n=" << n);
            expectTracesIdentical(fan_trace.trace(),
                                  solo_trace.trace());
        }
        ASSERT_EQ(fan_mean.count(), solo_mean.count());
        if (n > 0) {
            ASSERT_EQ(fan_mean.mean(), solo_mean.mean())
                << "iteration " << iter;
        }
    }
}

} // namespace
} // namespace core
} // namespace emstress
