/** @file Tests for the agree predictor. */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "predictors/agree.hh"

namespace bpsim
{
namespace
{

AgreeConfig
tinyConfig()
{
    AgreeConfig cfg;
    cfg.indexBits = 4;
    cfg.historyBits = 0;
    cfg.biasIndexBits = 8;
    return cfg;
}

TEST(Agree, LearnsStrongBiases)
{
    AgreePredictor predictor(tinyConfig());
    for (int i = 0; i < 20; ++i) {
        predictor.step(0x1000, true);
        predictor.step(0x2004, false);
    }
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
    EXPECT_FALSE(predictionFor(predictor, 0x2004));
}

TEST(Agree, BiasBitFixedAtFirstOutcome)
{
    AgreePredictor predictor(tinyConfig());
    predictor.step(0x1000, false); // bias := not-taken
    // Subsequent taken outcomes train "disagree", not the bias.
    for (int i = 0; i < 10; ++i)
        predictor.step(0x1000, true);
    EXPECT_TRUE(predictionFor(predictor, 0x1000))
        << "counter must have learned to disagree with the NT bias";
}

TEST(Agree, ConvertsDestructiveAliasingToNeutral)
{
    // Two opposite-biased branches sharing an agree counter both
    // push it toward "agree" — the scheme's core mechanism.
    AgreeConfig cfg = tinyConfig();
    AgreePredictor predictor(cfg);
    const std::uint64_t pc_taken = 0x1000;
    const std::uint64_t pc_not_taken = 0x1040; // aliases at 4 bits

    int wrong = 0;
    for (int i = 0; i < 100; ++i) {
        wrong += predictor.step(pc_taken, true) != true;
        wrong += predictor.step(pc_not_taken, false) != false;
    }
    EXPECT_LE(wrong, 3) << "aliased opposite biases must coexist";
}

TEST(Agree, UnseenBranchDefaultsToTaken)
{
    AgreePredictor predictor(tinyConfig());
    EXPECT_TRUE(predictionFor(predictor, 0x5000));
}

TEST(Agree, ResetClearsBiasBits)
{
    AgreePredictor predictor(tinyConfig());
    predictor.step(0x1000, false);
    predictor.reset();
    // After reset the first outcome re-fixes the bias.
    predictor.step(0x1000, true);
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
}

TEST(Agree, StorageAccounting)
{
    AgreeConfig cfg;
    cfg.indexBits = 10;
    cfg.historyBits = 10;
    cfg.biasIndexBits = 9;
    AgreePredictor predictor(cfg);
    EXPECT_EQ(predictor.counterBits(), 1024u * 2);
    // counters + history + bias bits + valid bits.
    EXPECT_EQ(predictor.storageBits(), 1024u * 2 + 10 + 512 + 512);
    EXPECT_EQ(predictor.directionCounters(), 1024u);
}

TEST(Agree, DetailInRange)
{
    AgreeConfig cfg;
    cfg.indexBits = 6;
    cfg.historyBits = 6;
    cfg.biasIndexBits = 6;
    AgreePredictor predictor(cfg);
    std::uint64_t pc = 0x400000;
    for (int i = 0; i < 300; ++i) {
        LastCounterHook served;
        predictor.stepFast(pc, i % 4 != 0, served);
        EXPECT_LT(served.id, predictor.directionCounters());
        pc += 12;
    }
}

TEST(AgreeDeath, HistoryWiderThanIndexIsFatal)
{
    AgreeConfig cfg;
    cfg.indexBits = 4;
    cfg.historyBits = 5;
    // The constructor throws; the factory's fatal surface exits.
    EXPECT_THROW(AgreePredictor{cfg}, ConfigError);
    EXPECT_EXIT(makePredictor("agree:n=4,h=5"),
                ::testing::ExitedWithCode(1), "cannot exceed");
}

} // namespace
} // namespace bpsim
