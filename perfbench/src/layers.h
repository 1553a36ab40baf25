/**
 * @file
 * Per-layer replays for traced runs: each times one public call into
 * one module of the measurement chain, from outside the module, on
 * the inputs a workload's own kernels produce.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "platform/platform.h"
#include "span_trace.h"

namespace perfbench {

/** Per-call wall times in milliseconds, keyed by metric name. */
using LayerTimes = std::map<std::string, std::vector<double>>;

/** Time one call, file it under `name` and record its span. */
template <typename F>
void
timeCall(const char *name, LayerTimes &out, SpanRecorder *spans,
         std::uint64_t parent, F &&call)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.worker = workerIndex();
    span.start_s = nowSeconds();
    call();
    span.end_s = nowSeconds();
    out[name].push_back(1e3 * span.duration());
    if (spans != nullptr)
        spans->record(std::move(span));
}

/** Which parts of the chain a replay covers. */
enum LayerSet : unsigned
{
    kCoreChain = 1u << 0, ///< uarch, pdn, platform stream.
    kEmChain = 1u << 1,   ///< antenna, Goertzel bank/push, SA sweeps.
    kScopeChain = 1u << 2, ///< scope capture.
};

/**
 * Replay the layers in `which` for one kernel on a platform, adding
 * one sample per layer to `out` and one span per call under `parent`.
 */
void replayLayers(emstress::platform::Platform &plat,
                  const emstress::core::EvalSettings &eval,
                  const emstress::isa::Kernel &kernel, unsigned which,
                  LayerTimes &out, SpanRecorder *spans,
                  std::uint64_t parent);

/**
 * Time `calls` constructions of the Cortex-A72 platform configuration
 * (service::presetConfig, which every platform set-up builds) under
 * platform.config_ms.
 */
void replayPlatformConfig(int calls, LayerTimes &out,
                          SpanRecorder *spans, std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
