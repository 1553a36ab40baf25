/**
 * @file
 * Per-layer replays.
 */

#include "layers.h"

#include "dsp/goertzel.h"
#include "instruments/oscilloscope.h"
#include "instruments/spectrum_analyzer.h"
#include "service/job.h"
#include "uarch/core_model.h"
#include "util/sample_sink.h"

namespace perfbench {

namespace em = emstress;

namespace {

/// Settle lead-in every platform run simulates before its observed
/// window (the platform's private kSettleTime); the core replay runs
/// the same total length the platform's stream pass does.
constexpr double kSettleS = 0.5e-6;

/** Push a whole trace into a sink and finish it. */
void
feed(em::SampleSink &sink, const em::Trace &trace)
{
    for (const double v : trace.samples())
        sink.push(v);
    sink.finish();
}

} // namespace

void
replayLayers(em::platform::Platform &plat,
             const em::core::EvalSettings &eval,
             const em::isa::Kernel &kernel, unsigned which,
             LayerTimes &out, SpanRecorder *spans, std::uint64_t parent)
{
    const double dt = em::platform::kPdnDt;
    const std::size_t cores = eval.active_cores == 0
        ? plat.poweredCores()
        : eval.active_cores;

    if ((which & kCoreChain) != 0) {
        // Core pipeline alone, emitting into a null sink.
        const em::uarch::CoreModel core(plat.config().core);
        const double total_s = eval.duration_s + kSettleS;
        em::NullSink discard;
        timeCall("uarch.loop_ms", out, spans, parent, [&] {
            core.runLoopInto(plat.pool(), kernel, plat.frequency(),
                             total_s, discard);
        });

        // The PDN's load: the core current resampled to the PDN step
        // and scaled to the active cores (the stepping cost depends
        // on the sample count, not on the values).
        const double cycle_dt = 1.0 / plat.frequency();
        const std::size_t n_cycles = em::uarch::CoreModel::loopEmitCount(
            plat.frequency(), total_s);
        em::TraceSink load(dt);
        {
            em::ZohResampleSink zoh(load, n_cycles, cycle_dt, dt);
            core.runLoopInto(plat.pool(), kernel, plat.frequency(),
                             total_s, zoh);
        }
        em::Trace i_load = load.take();
        double mean = 0.0;
        for (double &v : i_load.data()) {
            v *= static_cast<double>(cores);
            mean += v;
        }
        mean /= static_cast<double>(i_load.size());
        em::NullSink v_out;
        em::NullSink i_out;
        timeCall("pdn.stream_ms", out, spans, parent, [&] {
            auto pdn = plat.pdnModel().streamSim(dt, mean, &v_out,
                                                 &i_out);
            feed(pdn, i_load);
        });

        // The whole two-pass stream with every tap on a null sink.
        em::NullSink v_obs;
        em::NullSink i_obs;
        em::NullSink em_obs;
        timeCall("platform.stream_ms", out, spans, parent, [&] {
            plat.streamKernel(
                kernel, eval.duration_s,
                [&](const em::platform::StreamPlan &) {
                    return em::platform::StreamObservers{
                        &v_obs, &i_obs, &em_obs};
                },
                eval.active_cores);
        });
    }

    if ((which & (kEmChain | kScopeChain)) == 0)
        return;
    // Recorded waveforms for the instrument replays.
    const em::platform::PlatformRunResult run =
        plat.runKernel(kernel, eval.duration_s, eval.active_cores);
    const std::size_t n = run.em.size();
    em::Rng noise(kernel.hash());

    if ((which & kEmChain) != 0) {
        em::NullSink discard;
        timeCall("em.antenna_ms", out, spans, parent, [&] {
            auto rx = plat.antenna().receiveInto(
                discard, plat.config().antenna_distance_m, dt);
            feed(rx, run.i_die);
        });

        const auto &sa = plat.analyzer().params();
        std::optional<em::dsp::GoertzelBank> bank;
        timeCall("dsp.goertzel_bank_ms", out, spans, parent, [&] {
            bank.emplace(n, 1.0 / dt, eval.f_lo_hz, eval.f_hi_hz,
                         sa.window);
        });
        em::instruments::SaBandDetector det(sa, *bank, eval.f_lo_hz,
                                            eval.f_hi_hz);
        timeCall("dsp.goertzel_push_ms", out, spans, parent,
                 [&] { feed(det, run.em); });
        timeCall("instruments.sa_sweeps_ms", out, spans, parent, [&] {
            det.averagedMaxAmplitude(eval.sa_samples, noise);
        });
    }

    if ((which & kScopeChain) != 0) {
        timeCall("instruments.scope_ms", out, spans, parent, [&] {
            em::instruments::ScopeCaptureSink cap(
                plat.scope().params(), run.v_die.size(), dt, noise);
            feed(cap, run.v_die);
        });
    }
}

void
replayPlatformConfig(int calls, LayerTimes &out, SpanRecorder *spans,
                     std::uint64_t parent)
{
    for (int k = 0; k < calls; ++k)
        timeCall("platform.config_ms", out, spans, parent, [] {
            em::service::presetConfig(
                em::service::PlatformPreset::kJunoA72);
        });
}

} // namespace perfbench
