/**
 * @file
 * Former home of the Goertzel detector bank. The streaming band
 * detector now buffers the capture and runs the same FFT as the batch
 * spectrum (dsp::CapturePlan in dsp/spectrum.h); this header only
 * keeps the old name compiling.
 */

#ifndef EMSTRESS_DSP_GOERTZEL_H
#define EMSTRESS_DSP_GOERTZEL_H

#include "dsp/spectrum.h"

namespace emstress {
namespace dsp {

/**
 * Old name of CapturePlan, kept only until the next benchmark change
 * renames the perfbench layers (`dsp.goertzel_*`) that still use it.
 */
using GoertzelBank = CapturePlan;

} // namespace dsp
} // namespace emstress

#endif // EMSTRESS_DSP_GOERTZEL_H
