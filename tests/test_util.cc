/**
 * @file
 * Unit tests for the util layer: units, stats, rng, trace, table,
 * worker fleet.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/trace.h"
#include "util/units.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace {

TEST(Units, DbConversionsRoundTrip)
{
    EXPECT_NEAR(powerRatioToDb(10.0), 10.0, 1e-12);
    EXPECT_NEAR(powerRatioToDb(100.0), 20.0, 1e-12);
    EXPECT_NEAR(dbToPowerRatio(powerRatioToDb(3.7)), 3.7, 1e-12);
    EXPECT_NEAR(wattsToDbm(1e-3), 0.0, 1e-12);
    EXPECT_NEAR(wattsToDbm(1.0), 30.0, 1e-12);
    EXPECT_NEAR(dbmToWatts(wattsToDbm(2.5e-6)), 2.5e-6, 1e-18);
}

TEST(Units, MultiplierHelpers)
{
    EXPECT_DOUBLE_EQ(mega(67.0), 67e6);
    EXPECT_DOUBLE_EQ(nano(0.14), 0.14e-9);
    EXPECT_DOUBLE_EQ(milli(10.0), 0.01);
}

TEST(Units, LcResonanceInverses)
{
    const double l = nano(0.14);
    const double c = nano(40.0);
    const double f = lcResonanceHz(l, c);
    EXPECT_NEAR(inductanceForResonance(f, c), l, l * 1e-9);
    EXPECT_NEAR(capacitanceForResonance(f, l), c, c * 1e-9);
}

TEST(Units, LcResonanceKnownValue)
{
    // 1 uH with 1 uF resonates at ~159.155 kHz.
    EXPECT_NEAR(lcResonanceHz(1e-6, 1e-6), 159154.9, 0.5);
}

TEST(Units, VoltsRmsToWatts)
{
    EXPECT_NEAR(voltsRmsToWatts(1.0, 50.0), 0.02, 1e-12);
}

TEST(Stats, BasicMoments)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
    EXPECT_NEAR(stats::variance(xs), 1.25, 1e-12);
    EXPECT_NEAR(stats::rms(xs), std::sqrt(7.5), 1e-12);
    EXPECT_DOUBLE_EQ(stats::minimum(xs), 1.0);
    EXPECT_DOUBLE_EQ(stats::maximum(xs), 4.0);
    EXPECT_DOUBLE_EQ(stats::peakToPeak(xs), 3.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 3.0);
    EXPECT_THROW((void)stats::percentile(xs, 101.0), ConfigError);
}

TEST(Stats, PercentileSortedBitExactWithPercentile)
{
    // percentile() is now a sort-then-delegate wrapper around
    // percentileSorted(); the two must agree to the last bit so
    // call sites can convert to sort-once without changing any
    // recorded result.
    Rng rng(314);
    std::vector<double> xs;
    for (int i = 0; i < 257; ++i)
        xs.push_back(rng.gaussian(0.0, 5.0));
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p :
         {0.0, 1.0, 3.7, 25.0, 50.0, 75.0, 97.3, 99.0, 100.0}) {
        const double via_wrapper = stats::percentile(xs, p);
        const double via_sorted = stats::percentileSorted(sorted, p);
        // Bit-exact, not approximately equal.
        EXPECT_EQ(via_wrapper, via_sorted) << "p = " << p;
    }
}

TEST(Stats, PercentileSortedValidatesInput)
{
    const std::vector<double> sorted = {1.0, 2.0, 3.0};
    EXPECT_THROW((void)stats::percentileSorted(sorted, -1.0),
                 ConfigError);
    EXPECT_THROW((void)stats::percentileSorted({}, 50.0),
                 SimulationError);
#ifndef NDEBUG
    // Debug builds verify sortedness; release builds skip the O(n)
    // check (that is the point of the function).
    const std::vector<double> unsorted = {3.0, 1.0, 2.0};
    EXPECT_THROW((void)stats::percentileSorted(unsorted, 50.0),
                 SimulationError);
#endif
}

TEST(Stats, EmptySpanThrows)
{
    const std::vector<double> xs;
    EXPECT_THROW((void)stats::mean(xs), SimulationError);
    EXPECT_THROW((void)stats::rms(xs), SimulationError);
    EXPECT_THROW((void)stats::peakToPeak(xs), SimulationError);
}

TEST(Stats, RunningMatchesBatch)
{
    Rng rng(42);
    std::vector<double> xs;
    stats::Running run;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.gaussian(3.0, 2.0);
        xs.push_back(v);
        run.add(v);
    }
    EXPECT_NEAR(run.mean(), stats::mean(xs), 1e-9);
    EXPECT_NEAR(run.variance(), stats::variance(xs), 1e-9);
    EXPECT_DOUBLE_EQ(run.minimum(), stats::minimum(xs));
    EXPECT_DOUBLE_EQ(run.maximum(), stats::maximum(xs));
    EXPECT_EQ(run.count(), 1000u);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, ChanceBoundaries)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkIndependence)
{
    Rng a(7);
    Rng child = a.fork();
    // Child stream should not replay the parent stream.
    Rng b(7);
    (void)b.uniform(0.0, 1.0); // advance as fork() did
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= child.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(differs);
}

TEST(Trace, BasicAccessors)
{
    Trace t({1.0, 2.0, 3.0}, 0.5);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_DOUBLE_EQ(t.dt(), 0.5);
    EXPECT_DOUBLE_EQ(t.sampleRate(), 2.0);
    EXPECT_DOUBLE_EQ(t.duration(), 1.5);
    EXPECT_DOUBLE_EQ(t.timeAt(2), 1.0);
    EXPECT_DOUBLE_EQ(t[1], 2.0);
}

TEST(Trace, InvalidDtThrows)
{
    EXPECT_THROW(Trace t(0.0), ConfigError);
    EXPECT_THROW(Trace t(-1.0), ConfigError);
}

TEST(Trace, Slice)
{
    Trace t({0.0, 1.0, 2.0, 3.0, 4.0}, 1.0);
    const Trace s = t.slice(1, 3);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[2], 3.0);
    EXPECT_THROW((void)t.slice(3, 5), SimulationError);
}

TEST(Trace, ResampleZeroOrderHoldUpsamples)
{
    Trace t({1.0, 2.0}, 1.0);
    const Trace u = t.resampleZeroOrderHold(0.25);
    ASSERT_EQ(u.size(), 8u);
    EXPECT_DOUBLE_EQ(u[0], 1.0);
    EXPECT_DOUBLE_EQ(u[3], 1.0);
    EXPECT_DOUBLE_EQ(u[4], 2.0);
    EXPECT_DOUBLE_EQ(u[7], 2.0);
    EXPECT_DOUBLE_EQ(u.dt(), 0.25);
}

TEST(Trace, ResamplePreservesDuration)
{
    Trace t(std::vector<double>(1000, 1.5), 1e-9);
    const Trace u = t.resampleZeroOrderHold(0.25e-9);
    EXPECT_NEAR(u.duration(), t.duration(), 1e-12);
}

TEST(Table, TextAndCsvRendering)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b,eta").cell(2.25, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"b,eta\""), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CellBeforeRowThrows)
{
    Table t({"x"});
    EXPECT_THROW(t.cell("v"), SimulationError);
}

TEST(Table, NeedsAtLeastOneColumn)
{
    EXPECT_THROW(Table t({}), ConfigError);
}

TEST(Table, CsvEscapesQuotesAndNewlines)
{
    Table t({"a"});
    t.row().cell("say \"hi\"\nthere");
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\nthere\""),
              std::string::npos);
}

TEST(Rng, PickReturnsElementFromSpan)
{
    Rng rng(3);
    const std::vector<int> items = {10, 20, 30};
    for (int i = 0; i < 50; ++i) {
        const int v = rng.pick(std::span<const int>(items));
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Rng, IndexOfEmptyRangeThrows)
{
    Rng rng(3);
    EXPECT_THROW((void)rng.index(0), SimulationError);
}

TEST(Trace, SliceAtExactEndIsAllowed)
{
    Trace t({1.0, 2.0, 3.0}, 1.0);
    const Trace s = t.slice(1, 2);
    EXPECT_EQ(s.size(), 2u);
    const Trace whole = t.slice(0, 3);
    EXPECT_EQ(whole.size(), 3u);
    const Trace empty = t.slice(3, 0);
    EXPECT_TRUE(empty.empty());
}

TEST(WorkerFleet, RunVisitsEveryIndexOnce)
{
    WorkerFleet fleet(4);
    std::vector<std::atomic<int>> visits(257);
    const auto out =
        fleet.run(visits.size(), [&](std::size_t i, std::size_t worker) {
            EXPECT_LT(worker, 4u);
            visits[i].fetch_add(1);
        });
    EXPECT_EQ(out.executed, visits.size());
    EXPECT_EQ(out.skipped, 0u);
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(WorkerFleet, ReusableAcrossBatches)
{
    WorkerFleet fleet(3);
    std::atomic<long> sum{0};
    for (int batch = 0; batch < 20; ++batch)
        fleet.run(100, [&](std::size_t i, std::size_t) {
            sum.fetch_add(static_cast<long>(i));
        });
    EXPECT_EQ(sum.load(), 20L * (99L * 100L / 2L));
}

TEST(WorkerFleet, PropagatesFirstException)
{
    WorkerFleet fleet(2);
    EXPECT_THROW(fleet.run(64,
                           [](std::size_t i, std::size_t) {
                               if (i == 13)
                                   throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    // And the fleet survives for the next batch.
    std::atomic<int> count{0};
    fleet.run(8, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(WorkerFleet, ExceptionDoesNotAbandonRemainingItems)
{
    // The first exception is rethrown, but every other index must
    // still run: the GA's batch evaluator relies on a thrown task
    // not silently dropping its neighbours' results.
    WorkerFleet fleet(4);
    std::vector<std::atomic<int>> visits(97);
    EXPECT_THROW(fleet.run(visits.size(),
                           [&](std::size_t i, std::size_t) {
                               visits[i].fetch_add(1);
                               if (i == 5)
                                   throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(WorkerFleet, NestedRunThrows)
{
    // A task that submits to its own fleet would wait on workers
    // that may all be waiting too; it must get a SimulationError,
    // which then propagates to the outer call like any task
    // exception.
    WorkerFleet fleet(2);
    EXPECT_THROW(fleet.run(4,
                           [&](std::size_t, std::size_t) {
                               fleet.run(
                                   1, [](std::size_t, std::size_t) {});
                           }),
                 SimulationError);
    // The fleet stays usable afterwards.
    std::atomic<int> count{0};
    fleet.run(8, [&](std::size_t, std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(WorkerFleet, ShutdownWhileBusyCompletesTheBatch)
{
    // Rapid construct / run / destroy cycles race worker startup,
    // the batch hand-off, and shutdown; a worker that abandoned its
    // share on seeing stop_ would leave run() blocked here.
    for (int cycle = 0; cycle < 200; ++cycle) {
        std::atomic<int> count{0};
        {
            WorkerFleet fleet(4);
            fleet.run(16, [&](std::size_t, std::size_t) {
                count.fetch_add(1);
            });
            // Destructor runs immediately: stop_ lands while workers
            // may still be waking or have never woken.
        }
        EXPECT_EQ(count.load(), 16) << "cycle " << cycle;
    }
    // Construct-and-destroy with no batch at all must not hang either.
    for (int cycle = 0; cycle < 50; ++cycle)
        WorkerFleet idle(3);
}

TEST(WorkerFleet, ResolveThreadCount)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
    EXPECT_GE(resolveThreadCount(0), 1u); // auto is at least one
}

TEST(WorkerFleet, CancellationSkipsUnstartedTasks)
{
    // Every task from the tenth to start on sets the flag, so each
    // worker sees it on its next claim after running one such task:
    // at most 10 + (workers - 1) tasks run, and every index claimed
    // later is skipped and never runs.
    WorkerFleet fleet(2);
    std::atomic<bool> cancel{false};
    std::atomic<std::size_t> started{0};
    constexpr std::size_t n = 200;
    std::vector<std::atomic<int>> visits(n);
    const auto out = fleet.run(
        n,
        [&](std::size_t i, std::size_t) {
            visits[i].fetch_add(1);
            if (started.fetch_add(1) + 1 >= 10)
                cancel.store(true);
        },
        &cancel);
    EXPECT_EQ(out.executed + out.skipped, n);
    EXPECT_GE(out.executed, 10u);
    EXPECT_LE(out.executed, 11u);
    std::size_t ran = 0;
    for (const auto &v : visits) {
        EXPECT_LE(v.load(), 1);
        ran += static_cast<std::size_t>(v.load());
    }
    EXPECT_EQ(ran, out.executed);
}

TEST(WorkerFleet, ConcurrentSubmittersSeeOnlyTheirOwnIndices)
{
    // Four threads submit batches at once; each must see every one of
    // its own indices exactly once, whatever the interleaving.
    WorkerFleet fleet(3);
    constexpr std::size_t submitters = 4;
    constexpr int rounds = 10;
    std::vector<std::vector<std::atomic<int>>> visits;
    for (std::size_t s = 0; s < submitters; ++s)
        visits.emplace_back(50 + 17 * s);
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < submitters; ++s)
        threads.emplace_back([&, s] {
            for (int r = 0; r < rounds; ++r) {
                const auto out = fleet.run(
                    visits[s].size(), [&](std::size_t i, std::size_t) {
                        visits[s][i].fetch_add(1);
                    });
                EXPECT_EQ(out.executed, visits[s].size());
            }
        });
    for (auto &t : threads)
        t.join();
    for (std::size_t s = 0; s < submitters; ++s)
        for (std::size_t i = 0; i < visits[s].size(); ++i)
            EXPECT_EQ(visits[s][i].load(), rounds)
                << "submitter " << s << " index " << i;
}

TEST(Trace, ResampleToCoarserGridDecimates)
{
    Trace t({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 1.0);
    const Trace d = t.resampleZeroOrderHold(2.0);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_DOUBLE_EQ(d[0], 0.0);
    EXPECT_DOUBLE_EQ(d[1], 2.0);
    EXPECT_DOUBLE_EQ(d[3], 6.0);
}

} // namespace
} // namespace emstress
