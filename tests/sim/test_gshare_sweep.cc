/** @file Tests for the gshare.best exhaustive sweep (paper §3.1). */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "sim/gshare_sweep.hh"
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
    record.target = pc + 32;
    record.type = BranchType::Conditional;
    record.taken = taken;
    return record;
}

/** A trace whose branches strictly alternate: any history helps,
 *  and more history does not hurt (one pc, no aliasing). */
MemoryTrace
alternatingTrace(std::size_t n)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i)
        trace.append(cond(0x1000, i % 2 == 0));
    return trace;
}

/**
 * A trace built to punish history: many strongly biased branches in
 * both directions whose outcomes are iid coin contexts, so history
 * only fragments and aliases the table.
 */
MemoryTrace
aliasHeavyTrace(std::size_t n)
{
    Rng rng(5);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t site = rng.nextBounded(4000);
        const bool biased_taken = site % 2 == 0;
        // 2% deviation keeps history windows diverse.
        const bool outcome = rng.nextBool(0.02) ? !biased_taken
                                                : biased_taken;
        trace.append(cond(0x400000 + 4 * site * 3, outcome));
    }
    return trace;
}

TEST(GshareSweep, CoversRequestedRange)
{
    const MemoryTrace trace = alternatingTrace(2000);
    const auto result = sweepGshare(6, {&trace}, 2);
    ASSERT_EQ(result.points.size(), 5u);
    EXPECT_EQ(result.points.front().historyBits, 2u);
    EXPECT_EQ(result.points.back().historyBits, 6u);
    EXPECT_EQ(result.indexBits, 6u);
}

TEST(GshareSweep, HistoryWinsOnAlternation)
{
    const MemoryTrace trace = alternatingTrace(4000);
    const auto result = sweepGshare(6, {&trace});
    // m = 0 is bimodal: ~50% error; any m >= 1 nails it.
    EXPECT_GT(result.points[0].average, 40.0);
    EXPECT_LT(result.points[1].average, 5.0);
    EXPECT_GE(result.best().historyBits, 1u);
}

TEST(GshareSweep, ShortHistoryWinsOnAliasHeavyTrace)
{
    const MemoryTrace trace = aliasHeavyTrace(60'000);
    const auto result = sweepGshare(8, {&trace});
    // 4000 sites on 256 counters: long history only fragments.
    EXPECT_LT(result.best().historyBits, 8u);
    EXPECT_LT(result.best().average,
              result.points.back().average);
}

TEST(GshareSweep, AveragesAcrossTraces)
{
    const MemoryTrace a = alternatingTrace(2000);
    const MemoryTrace b = alternatingTrace(2000);
    const auto result = sweepGshare(4, std::vector<const MemoryTrace *>{&a, &b});
    for (const auto &point : result.points) {
        ASSERT_EQ(point.perBenchmark.size(), 2u);
        EXPECT_NEAR(point.average,
                    (point.perBenchmark[0] + point.perBenchmark[1]) / 2,
                    1e-9);
    }
}

TEST(GshareSweep, BestIsMinimum)
{
    const MemoryTrace trace = aliasHeavyTrace(20'000);
    const auto result = sweepGshare(6, {&trace});
    const auto &best = result.best();
    for (const auto &point : result.points)
        EXPECT_LE(best.average, point.average);
}

TEST(GshareSweep, ParallelMatchesSerialBitForBit)
{
    const MemoryTrace a = aliasHeavyTrace(20'000);
    const MemoryTrace b = alternatingTrace(4'000);

    const std::vector<const MemoryTrace *> traces = {&a, &b};
    const auto serial = sweepGshare(6, traces, 0, 1);
    const auto parallel = sweepGshare(6, traces, 0, 4);

    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].historyBits,
                  parallel.points[i].historyBits);
        // Exact equality: same jobs, same per-point accumulation
        // order, regardless of the thread schedule.
        EXPECT_EQ(serial.points[i].average,
                  parallel.points[i].average);
        EXPECT_EQ(serial.points[i].perBenchmark,
                  parallel.points[i].perBenchmark);
    }
}

TEST(GshareSweepDeath, NoTracesPanics)
{
    // Explicit vector type: `{}` alone would be ambiguous between
    // the trace-pointer and BenchmarkTrace overloads.
    EXPECT_DEATH(sweepGshare(6, std::vector<const MemoryTrace *>{}),
                 "at least one trace");
}

} // namespace
} // namespace bpsim
