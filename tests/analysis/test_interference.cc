/** @file Tests for the aliasing-interference taxonomy. */

#include <gtest/gtest.h>

#include "analysis/interference.hh"
#include "core/bimode.hh"
#include "predictors/bimodal.hh"
#include "trace/memory_trace.hh"

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

TEST(Interference, SingleBranchIsUnaliased)
{
    MemoryTrace trace;
    for (int i = 0; i < 100; ++i)
        trace.append(cond(0x1000, true));
    BimodalPredictor predictor(6);
    auto reader = trace.reader();
    const InterferenceStats stats =
        measureInterference(predictor, reader);
    EXPECT_EQ(stats.totalLookups(), 100u);
    EXPECT_EQ(stats.unaliasedLookups, 100u);
    EXPECT_EQ(stats.aliasedLookups(), 0u);
}

TEST(Interference, SeparateCountersAreUnaliased)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1004, false));
    }
    BimodalPredictor predictor(6);
    auto reader = trace.reader();
    const InterferenceStats stats =
        measureInterference(predictor, reader);
    EXPECT_EQ(stats.aliasedLookups(), 0u);
}

TEST(Interference, OppositeBiasCollisionIsDestructive)
{
    // Two opposite strong biases on one bimodal counter: once the
    // private shadows converge, every aliased lookup disagrees with
    // the private prediction and lands destructive.
    MemoryTrace trace;
    for (int i = 0; i < 200; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1040, false)); // aliases at 4 index bits
    }
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const InterferenceStats stats =
        measureInterference(predictor, reader);
    EXPECT_GT(stats.aliasedLookups(), 350u);
    // The not-taken branch eats the damage (the weakly-taken counter
    // oscillates on its taken side); the taken branch is unharmed.
    EXPECT_GT(stats.destructive, 150u);
    EXPECT_GT(stats.destructive, stats.constructive);
}

TEST(Interference, SameBiasCollisionIsNeutral)
{
    // Two taken-biased branches sharing a counter never disturb each
    // other: aliased but neutral.
    MemoryTrace trace;
    for (int i = 0; i < 200; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1040, true));
    }
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const InterferenceStats stats =
        measureInterference(predictor, reader);
    EXPECT_GT(stats.aliasedLookups(), 350u);
    EXPECT_EQ(stats.destructive, 0u);
    EXPECT_GT(stats.neutral, 350u);
}

TEST(Interference, BiModeNeutralizesOppositeBiases)
{
    MemoryTrace trace;
    for (int i = 0; i < 200; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1040, false));
    }

    BimodalPredictor bimodal(4);
    auto reader1 = trace.reader();
    const InterferenceStats before =
        measureInterference(bimodal, reader1);

    BiModeConfig cfg;
    cfg.directionIndexBits = 4;
    cfg.choiceIndexBits = 8;
    cfg.historyBits = 0;
    BiModePredictor bimode(cfg);
    auto reader2 = trace.reader();
    const InterferenceStats after =
        measureInterference(bimode, reader2);

    EXPECT_LT(after.destructive, before.destructive / 10)
        << "bi-mode must turn the destructive collision harmless";
}

TEST(Interference, PercentagesSumOverAliased)
{
    MemoryTrace trace;
    for (int i = 0; i < 120; ++i) {
        trace.append(cond(0x1000, i % 5 != 0));
        trace.append(cond(0x1040, i % 3 == 0));
    }
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const InterferenceStats stats =
        measureInterference(predictor, reader);
    EXPECT_NEAR(stats.destructivePercent() + stats.neutralPercent() +
                    stats.constructivePercent(),
                stats.aliasedPercent(), 1e-9);
}

/** A user subclass of the predictor interface with no counters. */
struct CounterlessPredictor : BranchPredictor
{
    bool predict(std::uint64_t) const override { return true; }
    void update(std::uint64_t, bool) override {}
    void reset() override {}
    std::string name() const override { return "counterless"; }
    std::uint64_t storageBits() const override { return 0; }
};

TEST(InterferenceDeath, RequiresCounters)
{
    MemoryTrace trace;
    CounterlessPredictor predictor;
    auto reader = trace.reader();
    EXPECT_EXIT(measureInterference(predictor, reader),
                ::testing::ExitedWithCode(1), "exposes none");
}

} // namespace
} // namespace bpsim
