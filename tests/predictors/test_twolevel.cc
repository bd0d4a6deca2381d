/** @file Tests for the GAg/GAs/PAg/PAs two-level taxonomy. */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "predictors/twolevel.hh"

namespace bpsim
{
namespace
{

TEST(TwoLevel, GAgLearnsGlobalPattern)
{
    TwoLevelPredictor gag(makeGAg(4));
    const std::uint64_t pc = 0x1000;
    // Repeating TTN pattern: determined by the last 4 outcomes.
    const bool pattern[] = {true, true, false};
    for (int i = 0; i < 120; ++i)
        gag.update(pc, pattern[i % 3]);
    int correct = 0;
    for (int i = 0; i < 30; ++i) {
        const bool expected = pattern[i % 3];
        correct += gag.predict(pc) == expected;
        gag.update(pc, expected);
    }
    EXPECT_GE(correct, 29);
}

TEST(TwoLevel, GAgIgnoresAddress)
{
    TwoLevelPredictor gag(makeGAg(6));
    EXPECT_EQ(gag.indexFor(0x1000), gag.indexFor(0x2000));
}

TEST(TwoLevel, GAsSeparatesByAddress)
{
    TwoLevelPredictor gas(makeGAs(4, 2));
    // Same history, different pc bits -> different PHTs.
    EXPECT_NE(gas.indexFor(0x1000), gas.indexFor(0x1004));
}

TEST(TwoLevel, GAsIndexLayout)
{
    TwoLevelPredictor gas(makeGAs(4, 2));
    // The pc bits sit above the history bits.
    const std::size_t index = gas.indexFor(0x1004);
    EXPECT_EQ(index >> 4, pcIndexBits(0x1004, 2));
}

TEST(TwoLevel, PAgUsesLocalHistory)
{
    TwoLevelPredictor pag(makePAg(4, 6));
    const std::uint64_t pc_a = 0x1000, pc_b = 0x1004;
    // Branch A alternates, branch B always taken; with per-address
    // history, B's behaviour must not disturb A's pattern table
    // index stream.
    bool a_outcome = false;
    for (int i = 0; i < 200; ++i) {
        pag.update(pc_a, a_outcome);
        a_outcome = !a_outcome;
        pag.update(pc_b, true);
    }
    int correct = 0;
    for (int i = 0; i < 40; ++i) {
        correct += pag.predict(pc_a) == a_outcome;
        pag.update(pc_a, a_outcome);
        a_outcome = !a_outcome;
        pag.update(pc_b, true);
        correct += pag.predict(pc_b);
        ++i;
    }
    EXPECT_GE(correct, 38);
}

TEST(TwoLevel, PAsCombinesLocalHistoryAndAddress)
{
    TwoLevelPredictor pas(makePAs(4, 6, 2));
    EXPECT_NE(pas.indexFor(0x1000), pas.indexFor(0x1004));
}

TEST(TwoLevel, Names)
{
    EXPECT_EQ(TwoLevelPredictor(makeGAg(12)).name(), "GAg(h=12)");
    EXPECT_EQ(TwoLevelPredictor(makeGAs(8, 4)).name(), "GAs(h=8,a=4)");
    EXPECT_EQ(TwoLevelPredictor(makePAg(10, 10)).name(),
              "PAg(h=10,l=10)");
    EXPECT_EQ(TwoLevelPredictor(makePAs(8, 10, 2)).name(),
              "PAs(h=8,l=10,a=2)");
}

TEST(TwoLevel, StorageAccountingGlobal)
{
    TwoLevelPredictor gas(makeGAs(8, 4));
    EXPECT_EQ(gas.counterBits(), (1u << 12) * 2);
    EXPECT_EQ(gas.storageBits(), (1u << 12) * 2 + 8);
    EXPECT_EQ(gas.directionCounters(), 1u << 12);
}

TEST(TwoLevel, StorageAccountingPerAddress)
{
    TwoLevelPredictor pas(makePAs(6, 8, 2));
    EXPECT_EQ(pas.counterBits(), (1u << 8) * 2);
    // First level: 2^8 registers of 6 bits each.
    EXPECT_EQ(pas.storageBits(), (1u << 8) * 2 + 256u * 6);
}

TEST(TwoLevel, ResetRestoresInitialPredictions)
{
    TwoLevelPredictor gag(makeGAg(6));
    for (int i = 0; i < 50; ++i)
        gag.update(0x1000, false);
    gag.reset();
    EXPECT_TRUE(gag.predict(0x1000));
}

TEST(TwoLevelDeath, OversizedIndexIsFatal)
{
    // The constructor throws; the factory's fatal surface exits.
    EXPECT_THROW(TwoLevelPredictor(makeGAs(20, 20)), ConfigError);
    EXPECT_EXIT(makePredictor("gas:h=20,a=20"),
                ::testing::ExitedWithCode(1), "unreasonably large");
}

/** All four taxonomy points must track a simple biased branch. */
class TaxonomyTest : public ::testing::TestWithParam<TwoLevelConfig>
{
};

TEST_P(TaxonomyTest, LearnsStrongBias)
{
    TwoLevelPredictor predictor(GetParam());
    const std::uint64_t pc = 0x1230;
    for (int i = 0; i < 100; ++i)
        predictor.update(pc, false);
    EXPECT_FALSE(predictor.predict(pc));
}

TEST_P(TaxonomyTest, DetailStaysInRange)
{
    TwoLevelPredictor predictor(GetParam());
    std::uint64_t pc = 0x400000;
    for (int i = 0; i < 300; ++i) {
        LastCounterHook served;
        predictor.stepFast(pc, i % 5 < 3, served);
        EXPECT_LT(served.id, predictor.directionCounters());
        pc += 8;
    }
}

INSTANTIATE_TEST_SUITE_P(Taxonomy, TaxonomyTest,
                         ::testing::Values(makeGAg(8), makeGAs(6, 3),
                                           makePAg(6, 8),
                                           makePAs(5, 8, 3)));

} // namespace
} // namespace bpsim
