/**
 * @file
 * Cycle-level CPU core models. These replace the paper's physical
 * CPUs: they execute the GA's instruction kernels (or arbitrary
 * instruction streams) and emit a per-cycle current-demand trace,
 * which is the only CPU observable the EM methodology depends on.
 *
 * Two pipeline disciplines are provided through one engine:
 *  - in-order (scoreboard) issue, modeling the Cortex-A53;
 *  - out-of-order (renamed, windowed) issue, modeling the Cortex-A72
 *    and the AMD Athlon II.
 *
 * The current model: each executing instruction spreads its effective
 * switching energy uniformly over its latency; the front end adds a
 * per-issued-instruction overhead; an idle floor models leakage and
 * the clock tree. Current = energy-per-cycle / (cycle_time * V).
 */

#ifndef EMSTRESS_UARCH_CORE_MODEL_H
#define EMSTRESS_UARCH_CORE_MODEL_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "util/sample_sink.h"
#include "util/trace.h"

namespace emstress {
namespace uarch {

/** Functional-unit categories the issue logic arbitrates over. */
enum class FuKind
{
    IntAlu,   ///< Short integer.
    IntMul,   ///< Long integer (mul/div); unpipelined.
    Fp,       ///< Floating point (short ops pipelined).
    Simd,     ///< SIMD datapath.
    Mem,      ///< Load/store port.
    BranchU,  ///< Branch unit.
};

/** Map an instruction class to the functional unit it occupies. */
FuKind fuKindForClass(isa::InstrClass cls);

/** Static configuration of a core model. */
struct CoreParams
{
    std::string name = "generic";
    bool out_of_order = true;
    unsigned issue_width = 2;   ///< Max instructions issued per cycle.
    unsigned window_size = 32;  ///< OoO scheduling window (ignored
                                ///< for in-order cores).
    unsigned fu_int = 2;        ///< Integer ALUs.
    unsigned fu_int_mul = 1;    ///< Integer multiply/divide units.
    unsigned fu_fp = 2;         ///< FP units.
    unsigned fu_simd = 1;       ///< SIMD units.
    unsigned fu_mem = 1;        ///< Load/store ports.
    unsigned fu_branch = 1;     ///< Branch units.

    double idle_current = 0.08;      ///< Leakage + clock tree [A].
    double issue_energy = 0.05e-9;   ///< Front-end energy per issue [J].
    double energy_scale = 1.0;       ///< Scales pool energies (node).
    double v_ref = 1.0;              ///< Voltage the energies assume.

    /** Number of units for a functional-unit kind. */
    unsigned fuCount(FuKind kind) const;
};

/** Statistics from running a kernel in a loop to steady state. */
struct KernelRunStats
{
    double ipc = 0.0;          ///< Steady-state instructions/cycle.
    double loop_period_s = 0.0;///< Steady-state loop iteration time.
    double loop_freq_hz = 0.0; ///< 1 / loop_period_s.
    std::size_t cycles = 0;    ///< Simulated cycles (after warmup).
    std::size_t instructions = 0; ///< Instructions issued (after warmup).
};

/** Output of a core-model run. */
struct CoreRunResult
{
    Trace current;        ///< Per-cycle current [A], dt = 1/f_clk.
    KernelRunStats stats; ///< Loop statistics (loop runs only).
};

/**
 * Bounded replayable recording of a loop run's emitted current,
 * filled by CoreModel::runLoopInto when the engine's steady-state
 * recurrence detection succeeds: the emitted stream then equals
 * `prefix` followed by `period` repeated until `total` samples are
 * out. Detection runs from cycle 0, so the recurrence may close
 * inside the warm-up: the prefix is then empty and the period is
 * rotated to start at the first emitted (post-warm-up) cycle. Lets a
 * caller that needs the same run twice (e.g. the platform's
 * mean-bias pass and observation pass) simulate once and replay, at
 * O(detection window) memory independent of duration.
 */
struct LoopRecording
{
    std::vector<double> prefix; ///< Samples emitted live before the
                                ///< recurrence (may be empty).
    std::vector<double> period; ///< One exact steady-state period,
                                ///< following the prefix (empty if
                                ///< detection failed).
    std::size_t total = 0;      ///< Samples the run emits in all.
    KernelRunStats stats;       ///< The run's statistics.

    /** True when the recording reproduces the full run. */
    bool
    complete() const
    {
        return !period.empty() || prefix.size() == total;
    }

    /** Replay the run into a sink (push x total, then finish). */
    void emitInto(SampleSink &sink) const;
};

/**
 * Executable core model. Stateless across runs; safe to reuse for
 * thousands of GA evaluations.
 */
class CoreModel
{
  public:
    /** Construct from parameters. */
    explicit CoreModel(const CoreParams &params);

    /** Parameters. */
    const CoreParams &params() const { return params_; }

    /**
     * Run a kernel as an infinite loop for a target duration and
     * return the steady-state current trace plus loop statistics.
     *
     * @param pool       Pool the kernel's instructions refer to.
     * @param kernel     Loop body to execute.
     * @param f_clk_hz   Core clock frequency.
     * @param duration_s Steady-state window to record (the engine
     *                   additionally runs a warmup that is discarded).
     */
    CoreRunResult runLoop(const isa::InstructionPool &pool,
                          const isa::Kernel &kernel, double f_clk_hz,
                          double duration_s) const;

    /**
     * Run a finite instruction stream once (no looping); used by the
     * synthetic benchmark workloads. The trace covers the full
     * execution.
     */
    CoreRunResult runStream(const isa::InstructionPool &pool,
                            std::span<const isa::Instruction> stream,
                            double f_clk_hz) const;

    /**
     * Streaming variant of runLoop: emits the per-cycle current into
     * a sample sink (one push per steady-state cycle, then finish())
     * instead of materializing a trace, and returns the loop
     * statistics. Sample values and stats are bit-identical to
     * runLoop; the engine itself holds O(window) state regardless of
     * duration.
     *
     * @param recording When non-null, additionally captures a bounded
     *                  prefix + period replay of the emitted stream
     *                  (check recording->complete(); detection can
     *                  fail for aperiodic-within-budget kernels).
     */
    KernelRunStats runLoopInto(const isa::InstructionPool &pool,
                               const isa::Kernel &kernel,
                               double f_clk_hz, double duration_s,
                               SampleSink &sink,
                               LoopRecording *recording = nullptr) const;

    /**
     * Cycles runLoopInto will emit for a duration: the simulated
     * steady-state window (loop execution never ends early).
     */
    static std::size_t loopEmitCount(double f_clk_hz,
                                     double duration_s)
    {
        return static_cast<std::size_t>(duration_s * f_clk_hz) + 1;
    }

  private:
    KernelRunStats simulateInto(const isa::InstructionPool &pool,
                                std::span<const isa::Instruction> body,
                                bool loop, double f_clk_hz,
                                std::size_t target_cycles,
                                std::size_t warmup_cycles,
                                SampleSink &sink,
                                LoopRecording *recording
                                = nullptr) const;

    CoreParams params_;
};

/** Cortex-A72-like out-of-order mobile big core. */
CoreParams cortexA72Params();

/** Cortex-A53-like dual-issue in-order little core. */
CoreParams cortexA53Params();

/** AMD Athlon II X4 645-like desktop out-of-order core. */
CoreParams athlonX4Params();

} // namespace uarch
} // namespace emstress

#endif // EMSTRESS_UARCH_CORE_MODEL_H
