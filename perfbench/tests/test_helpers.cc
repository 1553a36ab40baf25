/**
 * @file
 * Unit tests of the benchmark's own helpers: the exact-percentile rule,
 * the seed -> job-sequence generator and the span self-time fold.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <vector>

#include "job_mix.h"
#include "span_trace.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace svc = emstress::service;

std::vector<double>
shuffledRange(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    // Deterministic shuffle: the percentile must not rely on order.
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[splitMix64(i) % i]);
    return v;
}

TEST(ExactPercentile, NearestRankOnSortedSamples)
{
    const auto p50 = exactPercentile(shuffledRange(20), 0.50);
    ASSERT_TRUE(p50.has_value());
    EXPECT_EQ(p50->value, 10.0);
    EXPECT_EQ(p50->n, 20u);
    EXPECT_EQ(p50->beyond, 10u);

    const auto p95 = exactPercentile(shuffledRange(200), 0.95);
    ASSERT_TRUE(p95.has_value());
    EXPECT_EQ(p95->value, 190.0);
    EXPECT_EQ(p95->beyond, 10u);
}

TEST(ExactPercentile, RefusedWithFewerThanTenSamplesBeyond)
{
    EXPECT_FALSE(exactPercentile(shuffledRange(19), 0.50).has_value());
    EXPECT_FALSE(exactPercentile(shuffledRange(199), 0.95).has_value());
    EXPECT_FALSE(exactPercentile({}, 0.50).has_value());
    EXPECT_FALSE(exactPercentile(shuffledRange(50), 0.0).has_value());
    EXPECT_FALSE(exactPercentile(shuffledRange(50), 1.0).has_value());
    // A smaller requirement admits the same percentile.
    EXPECT_TRUE(exactPercentile(shuffledRange(19), 0.50, 9).has_value());
}

TEST(ExactPercentile, SamplesNeededMatchesTheRule)
{
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
        const std::size_t n = samplesNeeded(q);
        EXPECT_TRUE(exactPercentile(shuffledRange(n), q).has_value())
            << q;
        EXPECT_FALSE(
            exactPercentile(shuffledRange(n - 1), q).has_value())
            << q;
    }
    EXPECT_EQ(samplesNeeded(0.50), 20u);
    EXPECT_EQ(samplesNeeded(0.95), 200u);
    EXPECT_EQ(samplesNeeded(1.0), 0u);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(JobMix, SameSeedGivesSameSpecsAndFingerprints)
{
    const JobMix a(7);
    const JobMix b(7);
    for (std::size_t i = 0; i < 400; ++i) {
        const MixEntry x = a.entry(i);
        const MixEntry y = b.entry(i);
        EXPECT_EQ(svc::jobDescription(x.spec),
                  svc::jobDescription(y.spec));
        EXPECT_EQ(x.fingerprint, y.fingerprint);
        EXPECT_EQ(x.fingerprint, svc::jobFingerprint(x.spec));
        EXPECT_EQ(x.spec.tenant, y.spec.tenant);
        EXPECT_EQ(x.spec.job_class, y.spec.job_class);
        EXPECT_EQ(x.duplicate, y.duplicate);
        EXPECT_EQ(x.original, y.original);
    }
}

TEST(JobMix, DifferentSeedsGiveDifferentSpecs)
{
    const JobMix a(7);
    const JobMix b(8);
    std::size_t same = 0;
    for (std::size_t i = 0; i < 100; ++i)
        same += a.entry(i).fingerprint == b.entry(i).fingerprint;
    EXPECT_EQ(same, 0u);
}

TEST(JobMix, DuplicatesRepeatEarlierFreshSpecsUnderAnotherTenant)
{
    const JobMix mix(11);
    std::set<std::uint64_t> fresh;
    std::size_t duplicates = 0;
    std::size_t kinds[kJobKinds] = {};
    std::size_t tenants[kTenants.size()] = {};
    std::size_t interactive[kTenants.size()] = {};
    for (std::size_t i = 0; i < 600; ++i) {
        const MixEntry e = mix.entry(i);
        if (!e.duplicate) {
            EXPECT_TRUE(fresh.insert(e.fingerprint).second)
                << "fresh positions never collide";
            EXPECT_EQ(e.spec.tenant, kTenants[e.tenant].name);
            // Whole blocks only: the shares are exact per block.
            if (fresh.size() <= kMixBlock * kInteractiveEvery
                    * kTenantBlock) {
                ++kinds[static_cast<std::size_t>(e.kind)];
                ++tenants[e.tenant];
                interactive[e.tenant] +=
                    e.spec.job_class == svc::JobClass::kInteractive;
            }
            continue;
        }
        ++duplicates;
        ASSERT_GE(i, e.original + kDuplicateLag);
        const MixEntry orig = mix.entry(e.original);
        EXPECT_FALSE(orig.duplicate);
        EXPECT_EQ(e.fingerprint, orig.fingerprint);
        EXPECT_NE(e.spec.tenant, orig.spec.tenant);
    }
    EXPECT_GT(duplicates, 60u);
    EXPECT_LT(duplicates, 180u);
    // 480 fresh jobs: 24 kind blocks and 20 tenant-and-class blocks.
    for (std::size_t k = 0; k < kJobKinds; ++k)
        EXPECT_EQ(kinds[k], 24 * kKindPerBlock[k]) << k;
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
        EXPECT_EQ(tenants[t], 60 * kTenantPerBlock[t]) << t;
        EXPECT_EQ(interactive[t], 20 * kTenantPerBlock[t]) << t;
    }
}

TEST(SpanTrace, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans(4);
    spans[0] = {1, 0, "parent", 0.0, 10.0};
    spans[1] = {2, 1, "child", 1.0, 4.0};
    spans[2] = {3, 1, "child", 3.0, 6.0}; // overlaps the first child
    spans[3] = {4, 1, "child", 9.0, 12.0}; // runs past the parent
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0);
}

TEST(SpanTrace, SummaryAndChromeTrace)
{
    SpanRecorder rec;
    const std::uint64_t root = rec.record({0, 0, "root", 0.0, 2.0});
    rec.record({0, root, "leaf", 0.5, 1.0, 3, 4, 1});
    const auto rows = rec.summarize();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "root");
    EXPECT_TRUE(rows[0].has_children);
    EXPECT_DOUBLE_EQ(rows[0].self_s, 1.5);
    std::ostringstream os;
    rec.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
    EXPECT_NE(json.find("\"job\":3"), std::string::npos);
    EXPECT_NE(json.find("\"generation\":4"), std::string::npos);
}

} // namespace
} // namespace perfbench
