/** @file Tests for the perceptron predictor. */

#include <gtest/gtest.h>

#include <vector>

#include "predictors/perceptron.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

PerceptronConfig
smallConfig()
{
    PerceptronConfig cfg;
    cfg.tableIndexBits = 4;
    cfg.historyBits = 8;
    return cfg;
}

TEST(Perceptron, FreshPredictsTaken)
{
    // All-zero weights give output 0; the convention is taken.
    PerceptronPredictor predictor(smallConfig());
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_EQ(predictor.outputFor(0x1000), 0);
}

TEST(Perceptron, LearnsStrongBias)
{
    PerceptronPredictor predictor(smallConfig());
    for (int i = 0; i < 100; ++i)
        predictor.update(0x1000, false);
    EXPECT_FALSE(predictor.predict(0x1000));
    EXPECT_LT(predictor.outputFor(0x1000), 0);
}

TEST(Perceptron, LearnsAlternation)
{
    PerceptronPredictor predictor(smallConfig());
    bool outcome = false;
    for (int i = 0; i < 200; ++i) {
        predictor.update(0x1000, outcome);
        outcome = !outcome;
    }
    int correct = 0;
    for (int i = 0; i < 50; ++i) {
        correct += predictor.predict(0x1000) == outcome;
        predictor.update(0x1000, outcome);
        outcome = !outcome;
    }
    EXPECT_GE(correct, 49);
}

TEST(Perceptron, LearnsDeepSingleBitCorrelation)
{
    // Branch A is random; branch B copies A's outcome from four
    // iterations back. Each iteration shifts in A's outcome, then
    // B's, so when B is predicted the copied outcome sits at global
    // history bit 8: beyond a small PHT's reach, one weight for a
    // perceptron.
    PerceptronConfig cfg = smallConfig();
    cfg.historyBits = 12;
    PerceptronPredictor predictor(cfg);
    Rng rng(1997);
    constexpr std::size_t kLag = 4;
    std::vector<bool> a_outcomes;
    int correct = 0, measured = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        a_outcomes.push_back(rng.nextBool(0.5));
        predictor.update(0x1000, a_outcomes.back());
        const bool b_outcome = i >= kLag && a_outcomes[i - kLag];
        if (i >= 1000) {
            ++measured;
            correct += predictor.predict(0x1004) == b_outcome;
        }
        predictor.update(0x1004, b_outcome);
    }
    EXPECT_GE(correct, measured * 95 / 100);
}

TEST(Perceptron, WeightsSaturate)
{
    PerceptronConfig cfg = smallConfig();
    cfg.weightBits = 4; // range -8..7
    PerceptronPredictor predictor(cfg);
    for (int i = 0; i < 1000; ++i)
        predictor.update(0x1000, true);
    // Bias weight saturated at +7; with zero history contribution
    // magnitude stays within range.
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_LE(predictor.outputFor(0x1000),
              7 * (1 + static_cast<int>(cfg.historyBits)));
}

TEST(Perceptron, SeparateTableEntries)
{
    // Interleaved opposite-bias branches train different perceptrons;
    // measure each at its own history phase (global history is
    // shared, so out-of-phase probes are not meaningful).
    PerceptronPredictor predictor(smallConfig());
    int correct_a = 0, correct_b = 0;
    for (int i = 0; i < 60; ++i) {
        if (i >= 10) {
            correct_a += predictor.predict(0x1000) == false;
        }
        predictor.update(0x1000, false);
        if (i >= 10) {
            correct_b += predictor.predict(0x1004) == true;
        }
        predictor.update(0x1004, true);
    }
    EXPECT_GE(correct_a, 48);
    EXPECT_GE(correct_b, 48);
}

TEST(Perceptron, ResetZeroesWeights)
{
    PerceptronPredictor predictor(smallConfig());
    for (int i = 0; i < 50; ++i)
        predictor.update(0x1000, false);
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_EQ(predictor.outputFor(0x1000), 0);
}

TEST(Perceptron, StorageAccounting)
{
    PerceptronConfig cfg;
    cfg.tableIndexBits = 6;
    cfg.historyBits = 16;
    cfg.weightBits = 8;
    PerceptronPredictor predictor(cfg);
    // 64 perceptrons x 17 weights x 8 bits + 16 history bits.
    EXPECT_EQ(predictor.storageBits(), 64u * 17 * 8 + 16);
    EXPECT_EQ(predictor.counterBits(), 64u * 17 * 8);
    EXPECT_EQ(predictor.directionCounters(), 64u);
}

TEST(PerceptronDeath, BadConfigIsFatal)
{
    PerceptronConfig cfg = smallConfig();
    cfg.historyBits = 0;
    EXPECT_EXIT(PerceptronPredictor{cfg}, ::testing::ExitedWithCode(1),
                "history");
    cfg = smallConfig();
    cfg.weightBits = 1;
    EXPECT_EXIT(PerceptronPredictor{cfg}, ::testing::ExitedWithCode(1),
                "weights");
}

} // namespace
} // namespace bpsim
