/** @file Tests for trace statistics (the Table 2 columns). */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "trace/memory_trace.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

BranchRecord
cond(std::uint64_t pc, bool taken)
{
    BranchRecord record;
    record.pc = pc;
    record.target = pc + 16;
    record.type = BranchType::Conditional;
    record.taken = taken;
    return record;
}

TEST(TraceStats, EmptyTrace)
{
    TraceStats stats;
    EXPECT_EQ(stats.staticConditional(), 0u);
    EXPECT_EQ(stats.dynamicConditional(), 0u);
    EXPECT_EQ(stats.takenFraction(), 0.0);
    EXPECT_EQ(stats.stronglyBiasedDynamicFraction(), 0.0);
}

TEST(TraceStats, CountsStaticAndDynamic)
{
    TraceStats stats;
    stats.observe(cond(0x1000, true));
    stats.observe(cond(0x1000, true));
    stats.observe(cond(0x2000, false));
    EXPECT_EQ(stats.staticConditional(), 2u);
    EXPECT_EQ(stats.dynamicConditional(), 3u);
    EXPECT_NEAR(stats.takenFraction(), 2.0 / 3.0, 1e-12);
}

TEST(TraceStats, IgnoresNonConditional)
{
    TraceStats stats;
    BranchRecord call = cond(0x1000, true);
    call.type = BranchType::Call;
    stats.observe(call);
    EXPECT_EQ(stats.staticConditional(), 0u);
    EXPECT_EQ(stats.dynamicConditional(), 0u);
    EXPECT_EQ(stats.dynamicOther(), 1u);
}

TEST(TraceStats, StronglyBiasedFraction)
{
    TraceStats stats;
    // Branch A: 10/10 taken (strongly biased).
    for (int i = 0; i < 10; ++i)
        stats.observe(cond(0x1000, true));
    // Branch B: 5/10 taken (weak).
    for (int i = 0; i < 10; ++i)
        stats.observe(cond(0x2000, i < 5));
    EXPECT_NEAR(stats.stronglyBiasedDynamicFraction(0.9), 0.5, 1e-12);
}

TEST(TraceStats, ThresholdBoundaryIsInclusive)
{
    TraceStats stats;
    // Exactly 90% taken: classified strongly biased at 0.9.
    for (int i = 0; i < 10; ++i)
        stats.observe(cond(0x1000, i < 9));
    EXPECT_NEAR(stats.stronglyBiasedDynamicFraction(0.9), 1.0, 1e-12);
    // At a stricter threshold it no longer qualifies.
    EXPECT_NEAR(stats.stronglyBiasedDynamicFraction(0.95), 0.0, 1e-12);
}

TEST(TraceStats, NotTakenBiasCountsAsStrong)
{
    TraceStats stats;
    for (int i = 0; i < 20; ++i)
        stats.observe(cond(0x1000, false));
    EXPECT_NEAR(stats.stronglyBiasedDynamicFraction(0.9), 1.0, 1e-12);
}

TEST(TraceStats, PerBranchSortedByExecutions)
{
    TraceStats stats;
    for (int i = 0; i < 3; ++i)
        stats.observe(cond(0x1000, true));
    for (int i = 0; i < 7; ++i)
        stats.observe(cond(0x2000, false));
    const auto branches = stats.perBranch();
    ASSERT_EQ(branches.size(), 2u);
    EXPECT_EQ(branches[0].pc, 0x2000u);
    EXPECT_EQ(branches[0].executions, 7u);
    EXPECT_EQ(branches[1].pc, 0x1000u);
    EXPECT_EQ(branches[1].takenCount, 3u);
}

TEST(TraceStats, ObserveAllDrainsReader)
{
    MemoryTrace trace;
    trace.append(cond(0x1000, true));
    trace.append(cond(0x1004, false));
    TraceStats stats;
    auto reader = trace.reader();
    stats.observeAll(reader);
    EXPECT_EQ(stats.dynamicConditional(), 2u);
}

TEST(StaticBranchStats, TakenFraction)
{
    StaticBranchStats branch;
    branch.executions = 4;
    branch.takenCount = 1;
    EXPECT_DOUBLE_EQ(branch.takenFraction(), 0.25);
    EXPECT_FALSE(branch.isStronglyBiased(0.9));
    branch.takenCount = 0;
    EXPECT_TRUE(branch.isStronglyBiased(0.9));
}

/** The inverse of an odd @p value modulo 2^64 (Newton's iteration;
 *  each step doubles the correct low bits). */
constexpr std::uint64_t
inverseMod64(std::uint64_t value)
{
    std::uint64_t inverse = value;
    for (int i = 0; i < 6; ++i)
        inverse *= 2 - value * inverse;
    return inverse;
}

TEST(TraceStats, MatchesAnOrderedMapOracle)
{
    // pc k * K^-1 hashes to k, whose top bits are zero for small k:
    // every such pc shares home slot 0 at any table size, and k = 0
    // is pc 0.
    constexpr std::uint64_t kInverse =
        inverseMod64(TraceStats::kPcHashMultiplier);
    static_assert(kInverse * TraceStats::kPcHashMultiplier == 1);

    Rng rng(21);
    std::vector<std::uint64_t> sites;
    for (std::uint64_t k = 0; k < 300; ++k)
        sites.push_back(k * kInverse);
    for (int i = 0; i < 3000; ++i)
        sites.push_back(0x400000 + 4 * rng.nextBounded(1 << 20));
    for (int i = 0; i < 3000; ++i)
        sites.push_back(rng.next64());
    std::vector<double> bias(sites.size());
    for (double &b : bias) {
        const double strong = rng.nextBounded(2) ? 0.97 : 0.02;
        b = rng.nextBounded(4) == 0 ? 0.5 : strong;
    }

    struct Counts
    {
        std::uint64_t executions = 0;
        std::uint64_t taken = 0;
    };
    std::map<std::uint64_t, Counts> oracle;
    std::uint64_t dynamic = 0, taken = 0, other = 0;

    TraceStats stats;
    for (int i = 0; i < 200'000; ++i) {
        const std::size_t site = rng.nextBounded(sites.size());
        BranchRecord record =
            cond(sites[site], rng.nextBool(bias[site]));
        if (rng.nextBounded(10) == 0) {
            record.type = static_cast<BranchType>(1 + rng.nextBounded(4));
            ++other;
        } else {
            Counts &counts = oracle[record.pc];
            ++counts.executions;
            counts.taken += record.taken;
            ++dynamic;
            taken += record.taken;
        }
        stats.observe(record);
    }
    ASSERT_GT(oracle.size(), 5000u);

    EXPECT_EQ(stats.staticConditional(), oracle.size());
    EXPECT_EQ(stats.dynamicConditional(), dynamic);
    EXPECT_EQ(stats.dynamicOther(), other);
    EXPECT_EQ(stats.takenFraction(),
              static_cast<double>(taken) / static_cast<double>(dynamic));
    for (const double threshold : {0.5, 0.9, 0.95, 1.0}) {
        std::uint64_t biased = 0;
        for (const auto &[pc, counts] : oracle) {
            StaticBranchStats site;
            site.executions = counts.executions;
            site.takenCount = counts.taken;
            if (site.isStronglyBiased(threshold))
                biased += counts.executions;
        }
        EXPECT_EQ(stats.stronglyBiasedDynamicFraction(threshold),
                  static_cast<double>(biased) /
                      static_cast<double>(dynamic))
            << threshold;
    }

    std::vector<StaticBranchStats> expected;
    for (const auto &[pc, counts] : oracle) {
        StaticBranchStats site;
        site.pc = pc;
        site.executions = counts.executions;
        site.takenCount = counts.taken;
        expected.push_back(site);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const StaticBranchStats &a,
                        const StaticBranchStats &b) {
                         return a.executions > b.executions;
                     });
    const std::vector<StaticBranchStats> actual = stats.perBranch();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].pc, expected[i].pc) << i;
        EXPECT_EQ(actual[i].executions, expected[i].executions) << i;
        EXPECT_EQ(actual[i].takenCount, expected[i].takenCount) << i;
    }
}

} // namespace
} // namespace bpsim
