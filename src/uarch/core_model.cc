/**
 * @file
 * Core model implementation: a unified issue engine with renamed
 * dependencies that runs in either in-order or out-of-order
 * discipline, accumulating per-cycle switching energy.
 */

#include "uarch/core_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "util/error.h"
#include "util/metrics.h"

namespace emstress {
namespace uarch {

FuKind
fuKindForClass(isa::InstrClass cls)
{
    using C = isa::InstrClass;
    switch (cls) {
      case C::IntShort:    return FuKind::IntAlu;
      case C::IntLong:     return FuKind::IntMul;
      case C::FpShort:
      case C::FpLong:      return FuKind::Fp;
      case C::SimdShort:
      case C::SimdLong:    return FuKind::Simd;
      case C::Load:
      case C::Store:
      case C::IntShortMem:
      case C::IntLongMem:  return FuKind::Mem;
      case C::Branch:      return FuKind::BranchU;
    }
    return FuKind::IntAlu;
}

namespace {

/** Long-latency classes occupy their unit for the full latency. */
bool
isUnpipelined(isa::InstrClass cls)
{
    using C = isa::InstrClass;
    return cls == C::IntLong || cls == C::FpLong || cls == C::SimdLong
        || cls == C::IntLongMem;
}

/** Register-file index for the renaming table. */
std::size_t
regFileIndex(isa::RegFile file)
{
    switch (file) {
      case isa::RegFile::Int:  return 0;
      case isa::RegFile::Fp:   return 1;
      case isa::RegFile::Simd: return 2;
      case isa::RegFile::None: return 3;
    }
    return 3;
}

// Per-cycle switching energy, accumulated in a ring: an issue at
// cycle c spreads energy over [c, c + latency), so once every
// latency fits inside the ring, slot c % N holds exactly cycle c's
// energy by the end of cycle c and can be emitted and recycled
// immediately.
constexpr std::size_t kEnergyRing = 64;
constexpr std::int64_t kNotReady = std::numeric_limits<std::int64_t>::max();

/** One body slot, decoded once per run. */
struct DecodedSlot
{
    std::size_t fu;          ///< FuKind index.
    std::size_t rf;          ///< Register-file index.
    std::int64_t latency;
    double per_cycle;        ///< Switching energy per busy cycle.
    bool unpipelined;
    int src[2];              ///< Source registers, -1 when absent.
    int dest;                ///< Destination register, -1 when absent.
};

/** Renaming-table entry: the last writer of one register. */
struct RegState
{
    std::int64_t writer = -1; ///< Dynamic id, -1 when never written.
    std::int64_t finish = -1; ///< Result cycle, -1 while unissued.
    std::size_t entry = 0;    ///< Window entry while unissued.
};

/** One dispatched, not-yet-issued instruction in the window. */
struct WindowEntry
{
    std::size_t slot;             ///< Index within the body.
    std::int64_t dyn_id;          ///< Dynamic instruction id.
    std::int64_t producer[2];     ///< Producer dynamic ids or -1.
    std::int64_t finish[2];       ///< Producer finish cycle or -1.
    std::int64_t ready_max;       ///< Latest issued producer finish.
    int pending;                  ///< Producers not yet issued.
    int waiters;                  ///< First waiter node, -1 if none.
};

/**
 * The issue engine's whole state. Window entries live in a fixed
 * pool; `order_` lists them oldest first, and `ready_` and `fu_` hold,
 * at the same positions, each entry's operand-ready cycle and unit
 * kind. The ready cycle is cached as soon as both producers have
 * issued (a producer's finish time never changes afterwards), so
 * readiness is one compare and a cycle's issue candidates are one
 * pass of compares into a bitmask. Entries
 * waiting on an unissued producer hang off that producer's intrusive
 * waiter list (node 2e + k is operand k of entry e) and are woken
 * when it issues.
 */
class IssueEngine
{
  public:
    IssueEngine(const CoreParams &params, const isa::InstructionPool &pool,
                std::span<const isa::Instruction> body, bool loop)
        : params_(params), loop_(loop),
          width_(params.window_size), entries_(width_), pos_(width_),
          next_waiter_(2 * width_, -1), issued_pos_(params.issue_width)
    {
        slots_.reserve(body.size());
        for (const isa::Instruction &instr : body) {
            const isa::InstrDef &d = pool.def(instr.def_index);
            requireSim(d.latency <= kEnergyRing,
                       "instruction latency exceeds the energy ring; "
                       "enlarge kEnergyRing");
            DecodedSlot s;
            s.fu = static_cast<std::size_t>(fuKindForClass(d.cls));
            s.rf = regFileIndex(d.reg_file);
            s.latency = static_cast<std::int64_t>(d.latency);
            const double e_op = d.energy * params.energy_scale;
            s.per_cycle = e_op / static_cast<double>(d.latency);
            s.unpipelined = isUnpipelined(d.cls);
            s.src[0] = d.sources >= 1 && instr.src[0] >= 0 ? instr.src[0]
                                                          : -1;
            s.src[1] = d.sources >= 2 && instr.src[1] >= 0 ? instr.src[1]
                                                          : -1;
            s.dest = d.has_dest && instr.dest >= 0 ? instr.dest : -1;
            slots_.push_back(s);
        }
        for (std::size_t f = 0; f < 3; ++f) {
            const auto file = static_cast<isa::RegFile>(f);
            regs_[f].resize(
                static_cast<std::size_t>(std::max(pool.regCount(file), 1)));
        }
        regs_[3].resize(1);
        for (std::size_t k = 0; k < fu_busy_.size(); ++k)
            fu_busy_[k].assign(params.fuCount(static_cast<FuKind>(k)), 0);
        order_.reserve(width_);
        ready_.reserve(width_);
        fu_.reserve(width_);
        free_.reserve(width_);
        for (std::size_t e = width_; e-- > 0;)
            free_.push_back(e);
    }

    /** True once a finite stream has dispatched and issued it all. */
    bool drained() const { return stream_done_ && order_.empty(); }

    /** Fill the window from the body. */
    void
    dispatch()
    {
        while (!free_.empty() && !stream_done_)
            dispatchOne();
    }

    /**
     * Issue cycle c: oldest first, up to the issue width, stalling
     * behind the oldest entry on an in-order core. Returns the number
     * issued; `iters` counts issues of body slot 0.
     */
    unsigned
    issue(std::int64_t c, std::uint32_t &iters)
    {
        const unsigned issue_width = params_.issue_width;
        const std::size_t n = order_.size();
        unsigned issued = 0;
        // Issue attempt for window position i; false when its unit
        // kind has no free unit this cycle.
        auto tryIssue = [&](std::size_t i) {
            const std::size_t e = order_[i];
            const DecodedSlot &s = slots_[entries_[e].slot];
            auto &busy = fu_busy_[s.fu];
            std::size_t u = 0;
            while (u < busy.size() && busy[u] > c)
                ++u;
            if (u == busy.size())
                return false;
            issueEntry(e, s, busy[u], c);
            if (loop_ && entries_[e].slot == 0)
                ++iters;
            issued_pos_[issued++] = i;
            return true;
        };
        if (!params_.out_of_order) {
            // In-order: stall behind the oldest.
            for (std::size_t i = 0;
                 i < n && issued < issue_width && ready_[i] <= c; ++i)
                if (!tryIssue(i))
                    break;
        } else {
            // FU kinds with no free unit: their entries cannot issue.
            unsigned full_kinds = 0;
            for (std::size_t k = 0; k < fu_busy_.size(); ++k)
                if (std::all_of(fu_busy_[k].begin(), fu_busy_[k].end(),
                                [c](std::int64_t b) { return b > c; }))
                    full_kinds |= 1u << k;
            for (std::size_t base = 0; base < n && issued < issue_width;
                 base += 64) {
                const std::size_t lim = std::min<std::size_t>(64, n - base);
                std::uint64_t ready = 0;
                for (std::size_t j = 0; j < lim; ++j)
                    ready |= static_cast<std::uint64_t>(
                                 (ready_[base + j] <= c)
                                 & ((full_kinds >> fu_[base + j] & 1u) == 0))
                        << j;
                while (ready != 0 && issued < issue_width) {
                    const std::size_t i =
                        base + static_cast<std::size_t>(std::countr_zero(ready));
                    ready &= ready - 1;
                    if ((full_kinds >> fu_[i] & 1u) == 0 && !tryIssue(i))
                        full_kinds |= 1u << fu_[i];
                }
            }
        }
        if (issued > 0)
            compact(issued);
        return issued;
    }

    /**
     * End of cycle: every issue reaching this cycle has already
     * happened (later issues only touch later cycles), so its energy
     * is final. Return it and recycle the ring slot.
     */
    double
    retire(std::size_t cycle)
    {
        double &slot = energy_[cycle % kEnergyRing];
        const double e = slot;
        slot = 0.0;
        return e;
    }

    /**
     * Visit the normalized state at the end of cycle c as a word
     * sequence: the body position, window contents with dynamic ids
     * relative to the dispatch head, producer and register-writer
     * status (none, unissued, done, or cycles until done), unit busy
     * deltas and the pending energy ring. Two equal sequences evolve
     * identically, so from the first repeat on the run is periodic.
     * `word` returns false to stop the visit early, which then
     * returns false.
     */
    template <class Word>
    bool
    visitState(std::int64_t c, Word &&word) const
    {
        auto status = [&](std::int64_t id, std::int64_t finish) {
            if (id < 0)
                return word(0) && word(0);
            if (finish < 0)
                return word(1)
                    && word(static_cast<std::uint64_t>(id - next_dyn_));
            if (finish <= c)
                return word(2) && word(0); // done: any past finish is alike
            return word(3) && word(static_cast<std::uint64_t>(finish - c));
        };
        if (!word(next_slot_) || !word(order_.size()))
            return false;
        for (const std::size_t e : order_) {
            const WindowEntry &w = entries_[e];
            if (!word(w.slot)
                || !word(static_cast<std::uint64_t>(w.dyn_id - next_dyn_))
                || !status(w.producer[0], w.finish[0])
                || !status(w.producer[1], w.finish[1]))
                return false;
        }
        for (std::size_t j = 1; j <= kEnergyRing; ++j)
            if (!word(std::bit_cast<std::uint64_t>(
                    energy_[(static_cast<std::size_t>(c) + j)
                            % kEnergyRing])))
                return false;
        for (const auto &busy : fu_busy_)
            for (const std::int64_t b : busy)
                if (!word(static_cast<std::uint64_t>(
                        std::max<std::int64_t>(b - c, 0))))
                    return false;
        for (const auto &file : regs_)
            for (const RegState &r : file)
                if (!status(r.writer, r.finish))
                    return false;
        return true;
    }

  private:
    void
    dispatchOne()
    {
        const DecodedSlot &s = slots_[next_slot_];
        const std::size_t e = free_.back();
        free_.pop_back();
        WindowEntry &w = entries_[e];
        w.slot = next_slot_;
        w.dyn_id = next_dyn_++;
        w.ready_max = 0;
        w.pending = 0;
        w.waiters = -1;
        auto &file = regs_[s.rf];
        for (std::size_t k = 0; k < 2; ++k) {
            w.producer[k] = -1;
            w.finish[k] = -1;
            if (s.src[k] < 0)
                continue;
            const RegState &r = file[static_cast<std::size_t>(s.src[k])];
            w.producer[k] = r.writer;
            if (r.writer < 0)
                continue;
            if (r.finish >= 0) {
                w.finish[k] = r.finish;
                w.ready_max = std::max(w.ready_max, r.finish);
            } else {
                ++w.pending;
                const auto node = static_cast<int>(2 * e + k);
                next_waiter_[static_cast<std::size_t>(node)] =
                    entries_[r.entry].waiters;
                entries_[r.entry].waiters = node;
            }
        }
        pos_[e] = order_.size();
        order_.push_back(e);
        ready_.push_back(w.pending > 0 ? kNotReady : w.ready_max);
        fu_.push_back(static_cast<std::uint8_t>(s.fu));
        if (s.dest >= 0) {
            RegState &r = file[static_cast<std::size_t>(s.dest)];
            r.writer = w.dyn_id;
            r.finish = -1;
            r.entry = e;
        }
        if (++next_slot_ == slots_.size()) {
            if (loop_)
                next_slot_ = 0;
            else
                stream_done_ = true;
        }
    }

    void
    issueEntry(std::size_t e, const DecodedSlot &s, std::int64_t &unit,
               std::int64_t c)
    {
        const std::int64_t finish = c + s.latency;
        unit = s.unpipelined ? finish : c + 1;
        // Spread switching energy over the latency; front-end
        // overhead lands on the issue cycle.
        for (std::int64_t k = c; k < finish; ++k)
            energy_[static_cast<std::size_t>(k) % kEnergyRing] +=
                s.per_cycle;
        energy_[static_cast<std::size_t>(c) % kEnergyRing] +=
            params_.issue_energy;

        const WindowEntry &w = entries_[e];
        for (int node = w.waiters; node >= 0;
             node = next_waiter_[static_cast<std::size_t>(node)]) {
            const auto d = static_cast<std::size_t>(node) / 2;
            WindowEntry &dep = entries_[d];
            dep.finish[node % 2] = finish;
            dep.ready_max = std::max(dep.ready_max, finish);
            if (--dep.pending == 0)
                ready_[pos_[d]] = dep.ready_max;
        }
        if (s.dest >= 0) {
            RegState &r = regs_[s.rf][static_cast<std::size_t>(s.dest)];
            if (r.writer == w.dyn_id)
                r.finish = finish;
        }
        free_.push_back(e);
    }

    /** Drop the `issued` entries at issued_pos_ (ascending). */
    void
    compact(unsigned issued)
    {
        std::size_t out = issued_pos_[0];
        unsigned k = 0;
        for (std::size_t i = out; i < order_.size(); ++i) {
            if (k < issued && i == issued_pos_[k]) {
                ++k;
                continue;
            }
            order_[out] = order_[i];
            ready_[out] = ready_[i];
            fu_[out] = fu_[i];
            pos_[order_[out]] = out;
            ++out;
        }
        order_.resize(out);
        ready_.resize(out);
        fu_.resize(out);
    }

    const CoreParams &params_;
    const bool loop_;
    const std::size_t width_;
    std::vector<DecodedSlot> slots_;
    std::array<std::vector<RegState>, 4> regs_;
    std::array<std::vector<std::int64_t>, 6> fu_busy_;
    std::array<double, kEnergyRing> energy_{};
    std::vector<WindowEntry> entries_;
    std::vector<std::size_t> pos_;     ///< Window position per entry.
    std::vector<int> next_waiter_;
    std::vector<std::size_t> order_;   ///< Window, oldest first.
    std::vector<std::int64_t> ready_;  ///< Ready cycle per position.
    std::vector<std::uint8_t> fu_;     ///< FU kind per position.
    std::vector<std::size_t> free_;    ///< Unused entry indices.
    std::vector<std::size_t> issued_pos_; ///< This cycle's issues.
    std::size_t next_slot_ = 0;
    std::int64_t next_dyn_ = 0;
    bool stream_done_ = false;
};

} // namespace

unsigned
CoreParams::fuCount(FuKind kind) const
{
    switch (kind) {
      case FuKind::IntAlu:  return fu_int;
      case FuKind::IntMul:  return fu_int_mul;
      case FuKind::Fp:      return fu_fp;
      case FuKind::Simd:    return fu_simd;
      case FuKind::Mem:     return fu_mem;
      case FuKind::BranchU: return fu_branch;
    }
    return 1;
}

void
LoopRecording::emitInto(SampleSink &sink) const
{
    requireSim(complete(),
               "LoopRecording::emitInto on an incomplete recording");
    for (double v : prefix)
        sink.push(v);
    for (std::size_t i = prefix.size(); i < total; ++i)
        sink.push(period[(i - prefix.size()) % period.size()]);
    sink.finish();
}

CoreModel::CoreModel(const CoreParams &params) : params_(params)
{
    requireConfig(params.issue_width >= 1, "issue width must be >= 1");
    requireConfig(params.window_size >= params.issue_width,
                  "window must be at least the issue width");
    requireConfig(params.v_ref > 0.0, "reference voltage must be > 0");
}

CoreRunResult
CoreModel::runLoop(const isa::InstructionPool &pool,
                   const isa::Kernel &kernel, double f_clk_hz,
                   double duration_s) const
{
    TraceSink sink(1.0 / f_clk_hz);
    sink.reserve(loopEmitCount(f_clk_hz, duration_s));
    KernelRunStats stats =
        runLoopInto(pool, kernel, f_clk_hz, duration_s, sink);
    return {sink.take(), stats};
}

KernelRunStats
CoreModel::runLoopInto(const isa::InstructionPool &pool,
                       const isa::Kernel &kernel, double f_clk_hz,
                       double duration_s, SampleSink &sink,
                       LoopRecording *recording) const
{
    requireConfig(!kernel.empty(), "cannot run an empty kernel");
    requireConfig(f_clk_hz > 0.0 && duration_s > 0.0,
                  "clock and duration must be positive");
    kernel.validate(pool);
    const std::size_t target = loopEmitCount(f_clk_hz, duration_s);
    // Warmup long enough to fill pipelines and reach the periodic
    // steady state even for long-latency-heavy kernels.
    const std::size_t warmup =
        std::max<std::size_t>(1024, kernel.size() * 32);
    return simulateInto(pool, kernel.code(), true, f_clk_hz, target,
                        warmup, sink, recording);
}

CoreRunResult
CoreModel::runStream(const isa::InstructionPool &pool,
                     std::span<const isa::Instruction> stream,
                     double f_clk_hz) const
{
    requireConfig(!stream.empty(), "cannot run an empty stream");
    requireConfig(f_clk_hz > 0.0, "clock must be positive");
    // Upper bound: every instruction serialized at max latency.
    const std::size_t cap = stream.size() * 24 + 1024;
    TraceSink sink(1.0 / f_clk_hz);
    sink.reserve(cap);
    KernelRunStats stats =
        simulateInto(pool, stream, false, f_clk_hz, cap, 0, sink);
    return {sink.take(), stats};
}

KernelRunStats
CoreModel::simulateInto(const isa::InstructionPool &pool,
                        std::span<const isa::Instruction> body,
                        bool loop, double f_clk_hz,
                        std::size_t target_cycles,
                        std::size_t warmup_cycles,
                        SampleSink &sink,
                        LoopRecording *recording) const
{
    if (recording != nullptr) {
        recording->prefix.clear();
        recording->period.clear();
        recording->total = 0;
    }
    const double cycle_time = 1.0 / f_clk_hz;
    const std::size_t total_cycles = warmup_cycles + target_cycles;
    const double energy_to_amps = 1.0 / (cycle_time * params_.v_ref);

    IssueEngine engine(params_, pool, body, loop);

    // Loop statistics: cycles at which slot 0 issues.
    std::vector<std::int64_t> iter_starts;
    std::size_t issued_in_window = 0; // after warmup

    // --- Steady-state fast-forward (loop mode only) ---------------
    // A looping kernel's normalized microarchitectural state lives in
    // a finite space and evolves deterministically, so its sequence
    // at iteration boundaries (cycles where slot 0 issues) is
    // eventually periodic; from the first repeat on, the per-cycle
    // current, issue counts and iteration starts repeat exactly.
    // Detection runs from cycle 0 with Brent's method: the reference
    // snapshot is re-anchored at boundaries 8, 16, 32, ..., and every
    // boundary in between is compared with it word by word, stopping
    // at the first difference. Once it repeats, the cycles since the
    // reference are replayed for the rest of the run, warm-up cycles
    // feeding only the iteration starts.
    bool detecting = loop;
    // Recording rides on the same machinery: the prefix is every
    // live-simulated emitted sample, the period the detected
    // recurrence rotated to follow it. Abandoning detection also
    // abandons the recording (an unbounded prefix would defeat the
    // O(window) memory claim).
    bool rec_active = recording != nullptr && loop;
    bool have_ref = false;
    std::size_t boundaries = 0;
    std::size_t next_anchor = 8;
    std::size_t ref_cycle = 0;
    std::vector<std::uint64_t> ref_words;
    /** What one simulated cycle contributed. */
    struct CycleRecord
    {
        double sample;
        std::uint32_t issued;
        std::uint32_t iters;
    };
    std::vector<CycleRecord> since_ref; // cycles after the reference
    // A reference that goes this many cycles unmatched abandons
    // detection; spans double with each anchor, so at most about
    // twice this many cycles are ever recorded.
    constexpr std::size_t kMaxRecord = 8192;

    std::size_t cycle = 0;
    std::size_t replayed = 0;
    for (; cycle < total_cycles; ++cycle) {
        engine.dispatch();
        if (engine.drained())
            break;

        const auto c = static_cast<std::int64_t>(cycle);
        std::uint32_t iters_this_cycle = 0;
        const unsigned issued_this_cycle =
            engine.issue(c, iters_this_cycle);
        for (std::uint32_t r = 0; r < iters_this_cycle; ++r)
            iter_starts.push_back(c);

        const double emitted =
            params_.idle_current + engine.retire(cycle) * energy_to_amps;
        if (cycle >= warmup_cycles) {
            issued_in_window += issued_this_cycle;
            sink.push(emitted);
            if (rec_active)
                recording->prefix.push_back(emitted);
        }

        if (!detecting)
            continue;
        if (have_ref)
            since_ref.push_back(
                {emitted, issued_this_cycle, iters_this_cycle});
        if (iters_this_cycle > 0) {
            std::size_t at = 0;
            const bool recurs = have_ref
                && engine.visitState(c, [&](std::uint64_t w) {
                       return at < ref_words.size() && ref_words[at++] == w;
                   })
                && at == ref_words.size();
            if (recurs) {
                // Cycles ref_cycle+1..cycle form one exact period.
                // Replay it for the rest of the run.
                const std::size_t period = since_ref.size();
                if (rec_active) {
                    // Rotate the period so it starts at the first
                    // emitted sample after the prefix (a recurrence
                    // inside warm-up leaves the prefix empty).
                    const std::size_t next_out =
                        warmup_cycles + recording->prefix.size();
                    const std::size_t phase =
                        (next_out - ref_cycle - 1) % period;
                    recording->period.resize(period);
                    for (std::size_t j = 0; j < period; ++j)
                        recording->period[j] =
                            since_ref[(phase + j) % period].sample;
                }
                std::size_t idx = 0;
                for (std::size_t cyc = cycle + 1; cyc < total_cycles;
                     ++cyc) {
                    const CycleRecord &r = since_ref[idx];
                    for (std::uint32_t k = 0; k < r.iters; ++k)
                        iter_starts.push_back(
                            static_cast<std::int64_t>(cyc));
                    if (cyc >= warmup_cycles) {
                        sink.push(r.sample);
                        issued_in_window += r.issued;
                    }
                    if (++idx == period)
                        idx = 0;
                }
                replayed = total_cycles - cycle - 1;
                cycle = total_cycles;
                break;
            }
            if (boundaries++ == next_anchor) {
                ref_words.clear();
                engine.visitState(c, [&](std::uint64_t w) {
                    ref_words.push_back(w);
                    return true;
                });
                ref_cycle = cycle;
                have_ref = true;
                next_anchor *= 2;
                since_ref.clear();
            }
        }
        if (since_ref.size() > kMaxRecord) {
            // No recurrence within the budget: give up and keep
            // simulating cycle by cycle.
            detecting = false;
            std::vector<CycleRecord>().swap(since_ref);
            if (rec_active) {
                rec_active = false;
                std::vector<double>().swap(recording->prefix);
            }
        }
    }

    const std::size_t end_cycle = std::min(cycle, total_cycles);
    metrics::Registry &registry = metrics::Registry::instance();
    registry.add("uarch.core.cycles_simulated", end_cycle - replayed);
    registry.add("uarch.core.cycles_replayed", replayed);
    const std::size_t measured = end_cycle > warmup_cycles
        ? end_cycle - warmup_cycles
        : 0;
    requireSim(measured > 0, "core simulation produced no cycles");
    sink.finish();

    KernelRunStats stats;
    stats.cycles = measured;
    stats.instructions = issued_in_window;
    stats.ipc = static_cast<double>(issued_in_window)
        / static_cast<double>(measured);
    if (loop && iter_starts.size() >= 8) {
        // Steady-state loop period from the second half of the
        // iteration starts.
        const std::size_t half = iter_starts.size() / 2;
        const auto span_cycles =
            iter_starts.back() - iter_starts[half];
        const auto iters =
            static_cast<double>(iter_starts.size() - 1 - half);
        if (iters > 0 && span_cycles > 0) {
            stats.loop_period_s =
                static_cast<double>(span_cycles) / iters * cycle_time;
            stats.loop_freq_hz = 1.0 / stats.loop_period_s;
        }
    }
    if (recording != nullptr) {
        recording->total = measured;
        recording->stats = stats;
    }
    return stats;
}

CoreParams
cortexA72Params()
{
    CoreParams p;
    p.name = "Cortex-A72";
    p.out_of_order = true;
    p.issue_width = 3;
    p.window_size = 48;
    p.fu_int = 2;
    p.fu_int_mul = 1;
    p.fu_fp = 2;
    p.fu_simd = 2;
    p.fu_mem = 2;
    p.fu_branch = 1;
    p.idle_current = 0.10;
    p.issue_energy = 0.05e-9;
    p.energy_scale = 1.0; // 16 nm mobile big core (reference).
    p.v_ref = 1.0;
    return p;
}

CoreParams
cortexA53Params()
{
    CoreParams p;
    p.name = "Cortex-A53";
    p.out_of_order = false;
    p.issue_width = 2;
    p.window_size = 8; // shallow in-order front buffer
    p.fu_int = 2;
    p.fu_int_mul = 1;
    p.fu_fp = 1;
    p.fu_simd = 1;
    p.fu_mem = 1;
    p.fu_branch = 1;
    p.idle_current = 0.04;
    p.issue_energy = 0.03e-9;
    p.energy_scale = 1.1; // small in-order core: per-op switching
                          // energy comparable to the big core (same
                          // node); lower power comes from lower IPC
    p.v_ref = 1.0;
    return p;
}

CoreParams
athlonX4Params()
{
    CoreParams p;
    p.name = "Athlon II X4 645";
    p.out_of_order = true;
    p.issue_width = 3;
    p.window_size = 40;
    p.fu_int = 3;
    p.fu_int_mul = 1;
    p.fu_fp = 2;
    p.fu_simd = 2;
    p.fu_mem = 2;
    p.fu_branch = 1;
    p.idle_current = 0.9;    // 45 nm desktop: high static power
    p.issue_energy = 0.15e-9;
    p.energy_scale = 3.0;    // 45 nm node at 1.4 V: far higher energy
    p.v_ref = 1.4;
    return p;
}

} // namespace uarch
} // namespace emstress
