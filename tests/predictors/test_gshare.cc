/** @file Tests for the gshare predictor. */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"

namespace bpsim
{
namespace
{

/** Trains a predictor with a repeating outcome sequence at one pc. */
void
train(BranchPredictor &predictor, std::uint64_t pc,
      const std::vector<bool> &pattern, int repetitions)
{
    for (int r = 0; r < repetitions; ++r) {
        for (bool outcome : pattern)
            predictor.step(pc, outcome);
    }
}

TEST(Gshare, ZeroHistoryEqualsBimodal)
{
    // With m = 0 the index is pure address bits: gshare degenerates
    // to a bimodal predictor.
    GsharePredictor gshare(8, 0);
    BimodalPredictor bimodal(8);
    for (std::uint64_t pc : {0x1000ULL, 0x1004ULL, 0x2040ULL}) {
        for (bool outcome : {true, false, false, true, false}) {
            EXPECT_EQ(gshare.step(pc, outcome), bimodal.step(pc, outcome));
        }
    }
}

TEST(Gshare, LearnsAlternatingPatternBimodalCannot)
{
    // A strict alternation is 50/50 to a bimodal predictor but fully
    // determined by one bit of history.
    GsharePredictor gshare(8, 4);
    const std::uint64_t pc = 0x1000;
    bool outcome = false;
    for (int i = 0; i < 64; ++i) {
        gshare.step(pc, outcome);
        outcome = !outcome;
    }
    int correct = 0;
    for (int i = 0; i < 32; ++i) {
        correct += gshare.step(pc, outcome) == outcome;
        outcome = !outcome;
    }
    EXPECT_EQ(correct, 32) << "trained gshare must nail the alternation";
}

TEST(Gshare, PhtCount)
{
    EXPECT_EQ(GsharePredictor(12, 12).phtCount(), 1u);
    EXPECT_EQ(GsharePredictor(12, 10).phtCount(), 4u);
    EXPECT_EQ(GsharePredictor(12, 0).phtCount(), 4096u);
}

TEST(Gshare, IndexXorsHistoryIntoLowBits)
{
    GsharePredictor gshare(8, 4);
    const std::uint64_t pc = 0x1000;
    const std::size_t before = gshare.indexFor(pc);
    gshare.step(pc, true); // history becomes 0b1
    const std::size_t after = gshare.indexFor(pc);
    EXPECT_EQ(before ^ after, 1u);
}

TEST(Gshare, HighIndexBitsArePureAddress)
{
    // With m < n, two pcs differing in the top index bits can never
    // collide regardless of history.
    GsharePredictor gshare(8, 2);
    const std::uint64_t pc_a = 0x1000;
    const std::uint64_t pc_b = pc_a + (1ULL << (2 + 7)); // top index bit
    for (int i = 0; i < 16; ++i) {
        EXPECT_NE(gshare.indexFor(pc_a), gshare.indexFor(pc_b));
        gshare.step(pc_a, i % 3 == 0);
    }
}

TEST(Gshare, DestructiveAliasingWithFullHistory)
{
    // Construct two branches with opposite biases that share an
    // index under some history; their counter oscillates.
    GsharePredictor gshare(4, 4);
    // Same low address bits (64-byte stride aliases at 4 bits).
    const std::uint64_t pc_a = 0x1000, pc_b = 0x1040;
    EXPECT_EQ(gshare.indexFor(pc_a), gshare.indexFor(pc_b));
}

TEST(Gshare, InitializedWeaklyTaken)
{
    GsharePredictor gshare(8, 8);
    EXPECT_TRUE(predictionFor(gshare, 0x1000));
    EXPECT_TRUE(predictionFor(gshare, 0x2000));
}

TEST(Gshare, ResetClearsHistoryAndCounters)
{
    GsharePredictor gshare(8, 8);
    train(gshare, 0x1000, {false, false, false}, 10);
    gshare.reset();
    EXPECT_TRUE(predictionFor(gshare, 0x1000));
    EXPECT_EQ(gshare.indexFor(0x1000),
              GsharePredictor(8, 8).indexFor(0x1000));
}

TEST(Gshare, StorageAccounting)
{
    GsharePredictor gshare(12, 10);
    EXPECT_EQ(gshare.counterBits(), 4096u * 2);
    EXPECT_EQ(gshare.storageBits(), 4096u * 2 + 10);
    EXPECT_EQ(gshare.directionCounters(), 4096u);
}

TEST(Gshare, CostMatchesPaperLadder)
{
    // n = 12 -> 4096 counters -> 1 KB of 2-bit counters.
    GsharePredictor gshare(12, 12);
    EXPECT_EQ(gshare.counterBits() / 8, 1024u);
}

TEST(Gshare, NameIncludesConfig)
{
    EXPECT_EQ(GsharePredictor(12, 8).name(), "gshare(n=12,h=8)");
}

TEST(GshareDeath, HistoryWiderThanIndexIsFatal)
{
    // The constructor throws; the factory's fatal surface exits.
    EXPECT_THROW(GsharePredictor(8, 9), ConfigError);
    EXPECT_EXIT(makePredictor("gshare:n=8,h=9"),
                ::testing::ExitedWithCode(1), "cannot exceed");
}

/** Parameterized: detail counter ids stay in range across configs. */
class GshareConfigTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(GshareConfigTest, DetailInRange)
{
    const auto [n, m] = GetParam();
    GsharePredictor gshare(n, m);
    std::uint64_t pc = 0x400000;
    for (int i = 0; i < 500; ++i) {
        LastCounterHook served;
        gshare.stepFast(pc, i % 2 == 0, served);
        EXPECT_LT(served.id, gshare.directionCounters());
        pc += 4 * ((i % 7) + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GshareConfigTest,
    ::testing::Values(std::make_pair(4u, 0u), std::make_pair(8u, 4u),
                      std::make_pair(10u, 10u), std::make_pair(12u, 6u),
                      std::make_pair(14u, 14u)));

} // namespace
} // namespace bpsim
