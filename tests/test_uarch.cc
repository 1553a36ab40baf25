/**
 * @file
 * Tests for the core models: issue disciplines, latency/dependency
 * handling, IPC bounds, loop statistics and the current model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/resonant_kernel.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "uarch/core_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/sample_sink.h"
#include "util/stats.h"

namespace emstress {
namespace uarch {
namespace {

/** Kernel of n independent ADDs (different destination registers). */
isa::Kernel
independentAdds(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t add = pool.defIndex("ADD");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = add;
        instr.dest = static_cast<int>(i % 8);
        instr.src = {static_cast<int>((i + 1) % 8),
                     static_cast<int>((i + 2) % 8)};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

/** Kernel of n fully serialized ADDs (each depends on the last). */
isa::Kernel
chainedAdds(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t add = pool.defIndex("ADD");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = add;
        instr.dest = 0;
        instr.src = {0, 0};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

/** Kernel of self-dependent long-latency divides. */
isa::Kernel
chainedDivs(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t div = pool.defIndex("SDIV");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = div;
        instr.dest = 0;
        instr.src = {0, 0};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

TEST(CoreModel, IndependentAddsReachIssueWidthBoundedIpc)
{
    const auto pool = isa::InstructionPool::armV8();
    // Two integer ALUs bound ADD throughput at 2/cycle even on the
    // 3-wide A72.
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, independentAdds(pool, 16), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 2.0, 0.1);

    CoreModel a53(cortexA53Params());
    const auto run53 =
        a53.runLoop(pool, independentAdds(pool, 16), 950e6, 4e-6);
    EXPECT_NEAR(run53.stats.ipc, 2.0, 0.1);
}

TEST(CoreModel, ChainedAddsSerializeToIpcOne)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, chainedAdds(pool, 16), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 1.0, 0.05);
}

TEST(CoreModel, ChainedDivsGiveLatencyLimitedIpc)
{
    const auto pool = isa::InstructionPool::armV8();
    const unsigned lat = pool.def(pool.defIndex("SDIV")).latency;
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, chainedDivs(pool, 8), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 1.0 / static_cast<double>(lat), 0.01);
}

TEST(CoreModel, OutOfOrderBeatsInOrderOnMixedCode)
{
    // Mutually independent long-latency FSQRTs, each followed by
    // dependent FADDs: the in-order core stalls the consumers at the
    // head of the pipe while the OoO core overlaps FSQRTs from
    // adjacent iterations.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction q;
    q.def_index = pool.defIndex("FSQRT");
    q.dest = 1;
    q.src = {2, -1}; // f2 is never written: FSQRTs independent
    code.push_back(q);
    for (int j = 0; j < 12; ++j) {
        isa::Instruction f;
        f.def_index = pool.defIndex("FADD");
        f.dest = 3;
        f.src = {1, 1}; // consumers of the FSQRT result
        code.push_back(f);
    }
    isa::Kernel kernel(std::move(code));

    auto ooo_params = cortexA72Params();
    auto ino_params = cortexA72Params();
    ino_params.out_of_order = false;
    CoreModel ooo(ooo_params);
    CoreModel ino(ino_params);
    const double ipc_ooo =
        ooo.runLoop(pool, kernel, 1.2e9, 4e-6).stats.ipc;
    const double ipc_ino =
        ino.runLoop(pool, kernel, 1.2e9, 4e-6).stats.ipc;
    EXPECT_GT(ipc_ooo, ipc_ino * 1.3);
}

TEST(CoreModel, LoopFrequencyMatchesCycleCount)
{
    // 8 independent ADDs at 2/cycle + serializing MUL(lat 4):
    // period 8 cycles -> loop frequency f_clk / 8.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction m;
    m.def_index = pool.defIndex("MUL");
    m.dest = 1;
    m.src = {2, 2};
    code.push_back(m);
    for (int i = 0; i < 8; ++i) {
        isa::Instruction a;
        a.def_index = pool.defIndex("ADD");
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    isa::Kernel kernel(std::move(code));
    CoreModel a72(cortexA72Params());
    const auto run = a72.runLoop(pool, kernel, 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.loop_freq_hz, 1.2e9 / 8.0, 1.2e9 / 8.0 * 0.02);
}

TEST(CoreModel, LoopFrequencyScalesWithClock)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernel = independentAdds(pool, 16);
    CoreModel a72(cortexA72Params());
    const double f1 =
        a72.runLoop(pool, kernel, 1.2e9, 4e-6).stats.loop_freq_hz;
    const double f2 =
        a72.runLoop(pool, kernel, 0.6e9, 8e-6).stats.loop_freq_hz;
    EXPECT_NEAR(f1 / f2, 2.0, 0.05);
}

TEST(CoreModel, CurrentTraceDtMatchesClock)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, independentAdds(pool, 8), 1.0e9, 2e-6);
    EXPECT_DOUBLE_EQ(run.current.dt(), 1e-9);
    EXPECT_GE(run.current.size(), 1900u);
}

TEST(CoreModel, BusyCodeDrawsMoreCurrentThanStallingCode)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto busy =
        a72.runLoop(pool, independentAdds(pool, 16), 1.2e9, 4e-6);
    const auto stall =
        a72.runLoop(pool, chainedDivs(pool, 8), 1.2e9, 4e-6);
    EXPECT_GT(stats::mean(busy.current.samples()),
              2.0 * stats::mean(stall.current.samples()));
}

TEST(CoreModel, CurrentNeverBelowIdleFloor)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto params = cortexA72Params();
    CoreModel a72(params);
    const auto run =
        a72.runLoop(pool, chainedDivs(pool, 4), 1.2e9, 2e-6);
    EXPECT_GE(stats::minimum(run.current.samples()),
              params.idle_current - 1e-12);
}

TEST(CoreModel, TwoPhaseKernelProducesPeriodicCurrentSwings)
{
    // The virus mechanism: alternating high/low current phases must
    // show up as a large swing in the per-cycle current trace. A
    // self-chained FSQRT stalls the FP pipe (low phase); the burst of
    // dependent FADDs afterwards is the high phase.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction q;
    q.def_index = pool.defIndex("FSQRT");
    q.dest = 1;
    q.src = {1, -1};
    code.push_back(q);
    for (int i = 0; i < 16; ++i) {
        isa::Instruction a;
        a.def_index = pool.defIndex("FADD");
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    isa::Kernel kernel(std::move(code));
    CoreModel a72(cortexA72Params());
    const auto run = a72.runLoop(pool, kernel, 1.2e9, 4e-6);
    const double swing = stats::peakToPeak(run.current.samples());
    const double mean = stats::mean(run.current.samples());
    EXPECT_GT(swing, 0.5 * mean);
}

TEST(CoreModel, RunStreamExecutesAllInstructions)
{
    const auto pool = isa::InstructionPool::armV8();
    Rng rng(3);
    std::vector<isa::Instruction> stream;
    for (int i = 0; i < 2000; ++i)
        stream.push_back(pool.randomInstruction(rng));
    CoreModel a53(cortexA53Params());
    const auto run = a53.runStream(pool, stream, 950e6);
    EXPECT_EQ(run.stats.instructions, 2000u);
    EXPECT_GT(run.stats.ipc, 0.05);
    EXPECT_LE(run.stats.ipc, 2.0 + 1e-9);
}

TEST(CoreModel, ValidatesInput)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    isa::Kernel empty;
    EXPECT_THROW((void)a72.runLoop(pool, empty, 1.2e9, 1e-6),
                 ConfigError);
    EXPECT_THROW((void)a72.runLoop(pool, independentAdds(pool, 4),
                                   -1.0, 1e-6),
                 ConfigError);
    EXPECT_THROW(
        (void)a72.runStream(pool, std::vector<isa::Instruction>{},
                            1e9),
        ConfigError);

    auto bad = cortexA72Params();
    bad.issue_width = 0;
    EXPECT_THROW(CoreModel m(bad), ConfigError);
}

TEST(CoreModel, DeterministicAcrossRuns)
{
    const auto pool = isa::InstructionPool::armV8();
    Rng rng(4);
    const auto kernel = isa::Kernel::random(pool, 50, rng);
    CoreModel a72(cortexA72Params());
    const auto r1 = a72.runLoop(pool, kernel, 1.2e9, 2e-6);
    const auto r2 = a72.runLoop(pool, kernel, 1.2e9, 2e-6);
    ASSERT_EQ(r1.current.size(), r2.current.size());
    for (std::size_t i = 0; i < r1.current.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.current[i], r2.current[i]);
    EXPECT_DOUBLE_EQ(r1.stats.ipc, r2.stats.ipc);
}

/** Sink that folds every sample's bit pattern into a 64-bit digest. */
class DigestSink final : public SampleSink
{
  public:
    void
    push(double v) override
    {
        digest_ = mixSeed(digest_, std::bit_cast<std::uint64_t>(v));
        ++count_;
    }

    std::uint64_t digest() const { return digest_ ^ count_; }

  private:
    std::uint64_t digest_ = 0;
    std::uint64_t count_ = 0;
};

std::uint64_t
statsDigest(const KernelRunStats &s)
{
    std::uint64_t h = mixSeed(std::bit_cast<std::uint64_t>(s.ipc));
    h = mixSeed(h, std::bit_cast<std::uint64_t>(s.loop_period_s));
    h = mixSeed(h, std::bit_cast<std::uint64_t>(s.loop_freq_hz));
    h = mixSeed(h, s.cycles);
    return mixSeed(h, s.instructions);
}

/** One core model, its pool and its clock. */
struct DigestCore
{
    const char *name;
    CoreParams params;
    isa::InstructionPool pool;
    double f_clk_hz;
};

std::vector<DigestCore>
digestCores()
{
    return {{"A72", cortexA72Params(), isa::InstructionPool::armV8(),
             1.2e9},
            {"A53", cortexA53Params(), isa::InstructionPool::armV8(),
             950e6},
            {"Athlon", athlonX4Params(), isa::InstructionPool::x86Sse2(),
             3.1e9}};
}

/**
 * Corpus kernel k for a pool: seeded random kernels of length 1, 7,
 * 50 and 200, eight more seeded GA-sized (50-instruction) kernels,
 * then the two-phase resonant probe loop.
 */
isa::Kernel
digestKernel(const DigestCore &core, std::size_t k)
{
    constexpr std::size_t kLengths[] = {1, 7, 50, 200, 50, 50,
                                        50, 50, 50, 50, 50, 50};
    if (k < std::size(kLengths)) {
        Rng rng(9000 + k);
        return isa::Kernel::random(core.pool, kLengths[k], rng);
    }
    return core::makeResonantKernelFor(core.pool, core.f_clk_hz, 67e6);
}

constexpr std::size_t kDigestKernels = 13;
constexpr double kDigestDuration = 4.5e-6;

/** Pinned digests of one corpus run. */
struct PinnedDigest
{
    std::uint64_t stream;
    std::uint64_t stats;
};

/**
 * Stream and stats digests of the corpus (rows: A72, A53, Athlon),
 * recorded from the engine that detected the steady state from a
 * single post-warm-up snapshot, an independent oracle for the
 * fast-forward engine.
 */
constexpr PinnedDigest kPinnedDigests[3][kDigestKernels] = {
    {
        {0x64614add187e2153ull, 0x9838130428ffaddeull},
        {0xf200720ef7f830fcull, 0x11b50ea0ada40643ull},
        {0x0bd5c0e9d86cbc90ull, 0x4d4d7b45a0277650ull},
        {0xf123ba12e0cab83eull, 0xf5c1dd042c4dcef5ull},
        {0x47b9ed299fb40549ull, 0x0b768a9d4dd1bf4cull},
        {0x592ea47cd69d5a08ull, 0x3a226df1e6da1e06ull},
        {0xcb81fbdedc316347ull, 0xbadc7237fde9883full},
        {0x6c9a151007255c12ull, 0x8452eac472b49382ull},
        {0x9512fe00dab8262aull, 0xe63ca6511ce9ad74ull},
        {0xc187c59d211544c4ull, 0x2231b344a301e39aull},
        {0xb1190d27250959b9ull, 0x9337f003b1b34d45ull},
        {0x1ec662a30145be67ull, 0xae75e9c60710e99bull},
        {0xc6d2d637cc16375bull, 0x5ce5e782d27aeebcull},
    },
    {
        {0x332335beb6aa1485ull, 0x4caa5054e5722b55ull},
        {0xde0cdc1d3960f3e3ull, 0x6a48f969a1238640ull},
        {0xaf20865665a9176bull, 0xbdbcb2de1e7a0f46ull},
        {0xde65b237c8824b63ull, 0x12686234a7dc4250ull},
        {0x9aa1c9ddc9ae234eull, 0xc64683a5ced5e3afull},
        {0xbbc436afce90f00cull, 0xfdab43611d885394ull},
        {0x0033fecc9d3eb811ull, 0xcb653dc3201eca5full},
        {0xe34f2fcc3456aab1ull, 0x33dd8222a76e6cf5ull},
        {0x8b51777b1288ffb0ull, 0xea64f3811485bbcdull},
        {0x64eff83c954d42f9ull, 0xbe57d7f37852a84cull},
        {0xe6fc6d9b4af59b94ull, 0x806b7b8fc44145b3ull},
        {0xee06573390f946aaull, 0x403006115b9ca5d3ull},
        {0x1989b3a110235ad9ull, 0xb821f57d1e3f1f36ull},
    },
    {
        {0xe77060b994945705ull, 0x751e3294a05e94e8ull},
        {0x5813527e545e3e41ull, 0x8115a44984c56b36ull},
        {0x781629da07ed31e7ull, 0xea6486a350328b0full},
        {0x557157323e7372f8ull, 0x01c0c562a9ec489aull},
        {0xa10f375a5f0e5bc2ull, 0x91520ad334836b39ull},
        {0x3fc3c0ee095d0ca8ull, 0xa6f9e94aefa034eeull},
        {0x06fedc6279654e22ull, 0xd324868b93185a4aull},
        {0x2643ff473083a1a2ull, 0x452199bc73c0d236ull},
        {0x8713ba3f4a57afdaull, 0xcf69bf203055906full},
        {0xa5548b754e82bedfull, 0x089a78663f8fe70dull},
        {0x5851513d9a2ae851ull, 0xf60fdcc6125fd4e1ull},
        {0x18808b0fc456ac7cull, 0x3a07fbc77811f7f7ull},
        {0xdc4b834c88276f1eull, 0x9be6284df5239fc9ull},
    },
};

TEST(CoreModelFastForward, CorpusDigestsArePinned)
{
    const auto cores = digestCores();
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const CoreModel model(cores[c].params);
        for (std::size_t k = 0; k < kDigestKernels; ++k) {
            const auto kernel = digestKernel(cores[c], k);
            DigestSink live;
            LoopRecording rec;
            const auto stats =
                model.runLoopInto(cores[c].pool, kernel, cores[c].f_clk_hz,
                                  kDigestDuration, live, &rec);
            EXPECT_EQ(live.digest(), kPinnedDigests[c][k].stream)
                << cores[c].name << " kernel #" << k;
            EXPECT_EQ(statsDigest(stats), kPinnedDigests[c][k].stats)
                << cores[c].name << " kernel #" << k;
            EXPECT_EQ(statsDigest(rec.stats), statsDigest(stats));
            if (rec.complete()) {
                DigestSink replay;
                rec.emitInto(replay);
                EXPECT_EQ(replay.digest(), live.digest())
                    << cores[c].name << " kernel #" << k;
            }
        }
    }
}

TEST(CoreModelFastForward, LoopEqualsUnrolledStreamPastWarmup)
{
    // No detection involved: a finite stream of the kernel unrolled
    // far past the run length executes exactly like the loop until
    // it drains, so loop emission i is stream emission warmup + i.
    for (const auto &core : digestCores()) {
        const CoreModel model(core.params);
        for (const std::size_t len : {7u, 50u}) {
            Rng rng(77 + len);
            const auto kernel = isa::Kernel::random(core.pool, len, rng);
            const double duration = 1.5e-6;
            const auto loop =
                model.runLoop(core.pool, kernel, core.f_clk_hz, duration);
            const std::size_t warmup = std::max<std::size_t>(1024, 32 * len);
            const std::size_t cycles = warmup + loop.current.size();
            std::vector<isa::Instruction> stream;
            while (stream.size()
                   < core.params.issue_width * cycles
                       + core.params.window_size)
                for (const auto &instr : kernel.code())
                    stream.push_back(instr);
            const auto unrolled =
                model.runStream(core.pool, stream, core.f_clk_hz);
            ASSERT_GE(unrolled.current.size(), cycles) << core.name;
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < loop.current.size(); ++i)
                mismatches += std::bit_cast<std::uint64_t>(loop.current[i])
                    != std::bit_cast<std::uint64_t>(
                        unrolled.current[warmup + i]);
            EXPECT_EQ(mismatches, 0u) << core.name << " length " << len;
        }
    }
}

TEST(CoreModelFastForward, RecurrenceInsideWarmupReplaysExactly)
{
    // Independent ADDs settle within a few iterations, long before
    // the 1,024-cycle warm-up ends: the recording then holds no
    // prefix, only the period rotated to the warm-up phase.
    const auto pool = isa::InstructionPool::armV8();
    for (const auto &params : {cortexA72Params(), cortexA53Params()}) {
        const CoreModel model(params);
        for (const std::size_t len : {3u, 16u}) {
            TraceSink live(1.0 / 1.2e9);
            LoopRecording rec;
            const auto stats = model.runLoopInto(
                pool, independentAdds(pool, len), 1.2e9, 2e-6, live, &rec);
            ASSERT_TRUE(rec.complete()) << params.name;
            EXPECT_TRUE(rec.prefix.empty()) << params.name;
            EXPECT_EQ(rec.total, live.trace().size());
            EXPECT_EQ(statsDigest(rec.stats), statsDigest(stats));
            TraceSink replay(1.0 / 1.2e9);
            rec.emitInto(replay);
            ASSERT_EQ(replay.trace().size(), live.trace().size());
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < live.trace().size(); ++i)
                mismatches += std::bit_cast<std::uint64_t>(replay.trace()[i])
                    != std::bit_cast<std::uint64_t>(live.trace()[i]);
            EXPECT_EQ(mismatches, 0u) << params.name << " length " << len;
        }
    }
}

class FuKindMapping
    : public ::testing::TestWithParam<std::pair<isa::InstrClass, FuKind>>
{};

TEST_P(FuKindMapping, ClassMapsToExpectedUnit)
{
    EXPECT_EQ(fuKindForClass(GetParam().first), GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FuKindMapping,
    ::testing::Values(
        std::make_pair(isa::InstrClass::IntShort, FuKind::IntAlu),
        std::make_pair(isa::InstrClass::IntLong, FuKind::IntMul),
        std::make_pair(isa::InstrClass::FpShort, FuKind::Fp),
        std::make_pair(isa::InstrClass::FpLong, FuKind::Fp),
        std::make_pair(isa::InstrClass::SimdShort, FuKind::Simd),
        std::make_pair(isa::InstrClass::SimdLong, FuKind::Simd),
        std::make_pair(isa::InstrClass::Load, FuKind::Mem),
        std::make_pair(isa::InstrClass::Store, FuKind::Mem),
        std::make_pair(isa::InstrClass::IntShortMem, FuKind::Mem),
        std::make_pair(isa::InstrClass::IntLongMem, FuKind::Mem),
        std::make_pair(isa::InstrClass::Branch, FuKind::BranchU)));

TEST(CoreParams, FactoryConfigsAreConsistent)
{
    for (const auto &p :
         {cortexA72Params(), cortexA53Params(), athlonX4Params()}) {
        EXPECT_GE(p.issue_width, 1u);
        EXPECT_GE(p.window_size, p.issue_width);
        EXPECT_GT(p.idle_current, 0.0);
        EXPECT_GT(p.v_ref, 0.0);
        for (int k = 0; k < 6; ++k)
            EXPECT_GE(p.fuCount(static_cast<FuKind>(k)), 1u);
    }
    EXPECT_FALSE(cortexA53Params().out_of_order);
    EXPECT_TRUE(cortexA72Params().out_of_order);
    EXPECT_TRUE(athlonX4Params().out_of_order);
    // The 45 nm desktop core burns far more energy per op.
    EXPECT_GT(athlonX4Params().energy_scale,
              2.0 * cortexA72Params().energy_scale);
}

} // namespace
} // namespace uarch
} // namespace emstress
