/** @file Tests for the bi-mode predictor (the paper's contribution). */

#include <gtest/gtest.h>

#include <vector>

#include "core/bimode.hh"
#include "core/factory.hh"
#include "predictors/gshare.hh"

namespace bpsim
{
namespace
{

/** Small config with no history so direction indices are pure
 *  address bits — handy for constructing exact aliasing scenarios. */
BiModeConfig
tinyConfig()
{
    BiModeConfig cfg;
    cfg.directionIndexBits = 2;
    cfg.choiceIndexBits = 4;
    cfg.historyBits = 0;
    return cfg;
}

TEST(BiMode, PaperInitialization)
{
    BiModePredictor predictor(BiModeConfig::canonical(4));
    // Footnote 2: choice weakly-taken, taken bank weakly-taken,
    // not-taken bank weakly-not-taken.
    for (std::size_t i = 0; i < predictor.choiceTable().size(); ++i)
        EXPECT_EQ(predictor.choiceTable().value(i), 2u);
    for (std::size_t i = 0; i < predictor.takenBank().size(); ++i)
        EXPECT_EQ(predictor.takenBank().value(i), 2u);
    for (std::size_t i = 0; i < predictor.notTakenBank().size(); ++i)
        EXPECT_EQ(predictor.notTakenBank().value(i), 1u);
}

TEST(BiMode, InitialPredictionIsTaken)
{
    BiModePredictor predictor(BiModeConfig::canonical(6));
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(BiMode, ChoiceSelectsBank)
{
    BiModePredictor predictor(tinyConfig());
    const std::uint64_t pc = 0x1000;
    // Counter ids are bank-major, so the serving bank is the id's
    // bits above the direction index. Fresh: choice says taken ->
    // taken bank.
    const unsigned d = tinyConfig().directionIndexBits;
    EXPECT_EQ(servingCounter(predictor, pc) >> d,
              BiModePredictor::kTakenBank);
    // Train not-taken twice: choice drops to the not-taken side.
    predictor.update(pc, false);
    predictor.update(pc, false);
    EXPECT_EQ(servingCounter(predictor, pc) >> d,
              BiModePredictor::kNotTakenBank);
}

TEST(BiMode, PartialUpdateLeavesUnselectedBankUntouched)
{
    BiModePredictor predictor(tinyConfig());
    const std::uint64_t pc = 0x1000;
    const std::size_t index = predictor.directionIndexFor(pc);
    const std::uint8_t nt_before = predictor.notTakenBank().value(index);
    // Choice selects the taken bank; updating must not write the
    // not-taken bank.
    predictor.update(pc, true);
    predictor.update(pc, false);
    EXPECT_EQ(predictor.notTakenBank().value(index), nt_before);
}

TEST(BiMode, FullUpdateAblationWritesBothBanks)
{
    BiModeConfig cfg = tinyConfig();
    cfg.partialUpdate = false;
    BiModePredictor predictor(cfg);
    const std::uint64_t pc = 0x1000;
    const std::size_t index = predictor.directionIndexFor(pc);
    const std::uint8_t nt_before = predictor.notTakenBank().value(index);
    predictor.update(pc, true);
    EXPECT_EQ(predictor.notTakenBank().value(index), nt_before + 1);
}

TEST(BiMode, ChoiceUpdateException)
{
    // The paper's rule: the choice predictor is NOT updated when its
    // choice disagrees with the outcome but the selected direction
    // counter predicted correctly.
    BiModePredictor predictor(tinyConfig());
    // pc_a and pc_b share a direction-bank slot (low 2 word-address
    // bits) but have distinct choice entries (4 bits).
    const std::uint64_t pc_a = 0x1000;
    const std::uint64_t pc_b = 0x1010;
    ASSERT_EQ(predictor.directionIndexFor(pc_a),
              predictor.directionIndexFor(pc_b));
    ASSERT_NE(predictor.choiceIndexFor(pc_a),
              predictor.choiceIndexFor(pc_b));

    // Drive the shared taken-bank counter to strongly-not-taken via
    // pc_a (whose choice is still taken-side during the updates).
    predictor.update(pc_a, false);
    ASSERT_EQ(predictor.takenBank().value(
                  predictor.directionIndexFor(pc_a)), 1u);

    // Now pc_b: choice (weakly-taken) selects the taken bank, which
    // predicts not-taken; the outcome is not-taken. Choice was
    // "wrong" but the direction counter was right -> choice must
    // stay at weakly-taken.
    const std::size_t choice_b = predictor.choiceIndexFor(pc_b);
    ASSERT_EQ(predictor.choiceTable().value(choice_b), 2u);
    ASSERT_FALSE(predictor.predict(pc_b));
    predictor.update(pc_b, false);
    EXPECT_EQ(predictor.choiceTable().value(choice_b), 2u)
        << "choice must not be evicted from a bank serving it well";
}

TEST(BiMode, AlwaysUpdateChoiceAblationRemovesException)
{
    BiModeConfig cfg = tinyConfig();
    cfg.alwaysUpdateChoice = true;
    BiModePredictor predictor(cfg);
    const std::uint64_t pc_a = 0x1000, pc_b = 0x1010;
    predictor.update(pc_a, false);
    const std::size_t choice_b = predictor.choiceIndexFor(pc_b);
    ASSERT_EQ(predictor.choiceTable().value(choice_b), 2u);
    predictor.update(pc_b, false);
    EXPECT_EQ(predictor.choiceTable().value(choice_b), 1u)
        << "ablation: choice is trained on every branch";
}

TEST(BiMode, ChoiceTrainsOnAgreement)
{
    BiModePredictor predictor(tinyConfig());
    const std::uint64_t pc = 0x1000;
    const std::size_t choice = predictor.choiceIndexFor(pc);
    ASSERT_EQ(predictor.choiceTable().value(choice), 2u);
    predictor.update(pc, true);
    EXPECT_EQ(predictor.choiceTable().value(choice), 3u);
}

TEST(BiMode, DeAliasesOppositeBiasedBranches)
{
    // The headline mechanism: two strongly but oppositely biased
    // branches that collide in a gshare PHT slot destroy each other;
    // bi-mode steers them into different banks and predicts both.
    BiModeConfig cfg;
    cfg.directionIndexBits = 4;
    cfg.choiceIndexBits = 8;
    cfg.historyBits = 0;
    BiModePredictor bimode(cfg);
    GsharePredictor gshare(4, 0);

    // 4 direction-index bits: pcs 64 bytes apart collide.
    const std::uint64_t pc_taken = 0x1000;
    const std::uint64_t pc_not_taken = 0x1040;
    ASSERT_EQ(bimode.directionIndexFor(pc_taken),
              bimode.directionIndexFor(pc_not_taken));

    int bimode_wrong = 0, gshare_wrong = 0;
    for (int i = 0; i < 200; ++i) {
        bimode_wrong += bimode.predict(pc_taken) != true;
        bimode.update(pc_taken, true);
        gshare_wrong += gshare.predict(pc_taken) != true;
        gshare.update(pc_taken, true);

        bimode_wrong += bimode.predict(pc_not_taken) != false;
        bimode.update(pc_not_taken, false);
        gshare_wrong += gshare.predict(pc_not_taken) != false;
        gshare.update(pc_not_taken, false);
    }
    EXPECT_LE(bimode_wrong, 4)
        << "bi-mode must absorb the alias after brief training";
    EXPECT_GE(gshare_wrong, 150)
        << "the shared gshare counter must oscillate";
}

TEST(BiMode, CounterIdsAreBankMajor)
{
    BiModePredictor predictor(tinyConfig());
    const std::uint64_t pc = 0x1000;
    const std::uint64_t bank_size = 1u << 2;
    // Fresh prediction comes from the taken bank (bank 1).
    std::uint64_t id = servingCounter(predictor, pc);
    EXPECT_EQ(id, bank_size + predictor.directionIndexFor(pc));
    EXPECT_LT(id, predictor.directionCounters());
    // After the choice flips, ids come from the not-taken bank.
    predictor.update(pc, false);
    predictor.update(pc, false);
    id = servingCounter(predictor, pc);
    EXPECT_EQ(id, predictor.directionIndexFor(pc));
    EXPECT_LT(id, bank_size);
}

TEST(BiMode, HistoryAffectsDirectionIndexOnly)
{
    BiModeConfig cfg;
    cfg.directionIndexBits = 6;
    cfg.choiceIndexBits = 6;
    cfg.historyBits = 6;
    BiModePredictor predictor(cfg);
    const std::uint64_t pc = 0x1000;
    const std::size_t choice_before = predictor.choiceIndexFor(pc);
    const std::size_t dir_before = predictor.directionIndexFor(pc);
    predictor.update(pc, true);
    EXPECT_EQ(predictor.choiceIndexFor(pc), choice_before)
        << "the choice table is indexed by address only";
    EXPECT_EQ(predictor.directionIndexFor(pc), dir_before ^ 1u)
        << "history xors into the direction index";
}

TEST(BiMode, StorageAccountingCanonical)
{
    // Canonical d: choice 2^d + two banks of 2^d = 3 * 2^d counters.
    BiModePredictor predictor(BiModeConfig::canonical(10));
    EXPECT_EQ(predictor.counterBits(), 3u * 1024 * 2);
    EXPECT_EQ(predictor.directionCounters(), 2u * 1024);
    EXPECT_EQ(predictor.storageBits(), 3u * 1024 * 2 + 10);
}

TEST(BiMode, NaturalCostIsOneAndAHalfTimesSmallerGshare)
{
    // The paper: bi-mode with 2^d-counter banks costs 1.5x the
    // gshare whose table equals the two direction banks combined
    // (the choice table is the 50% extra) — Figure 6's example is
    // 128+2x128 = 384 counters vs 256.
    BiModePredictor bimode(BiModeConfig::canonical(10));
    GsharePredictor gshare(11, 11);
    EXPECT_EQ(bimode.counterBits() * 2, gshare.counterBits() * 3);
}

TEST(BiMode, ResetReproducesFreshBehavior)
{
    BiModePredictor predictor(BiModeConfig::canonical(6));
    BiModePredictor fresh(BiModeConfig::canonical(6));
    std::vector<bool> outcomes;
    std::uint64_t pc = 0x1000;
    for (int i = 0; i < 200; ++i) {
        predictor.update(pc, i % 3 == 0);
        pc += 4 * ((i % 5) + 1);
    }
    predictor.reset();
    pc = 0x1000;
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(predictor.predict(pc), fresh.predict(pc)) << i;
        predictor.update(pc, i % 3 == 0);
        fresh.update(pc, i % 3 == 0);
        pc += 4 * ((i % 5) + 1);
    }
}

TEST(BiMode, NameReflectsConfigAndAblations)
{
    EXPECT_EQ(BiModePredictor(BiModeConfig::canonical(11)).name(),
              "bimode(d=11,c=11,h=11)");
    BiModeConfig cfg = BiModeConfig::canonical(4);
    cfg.partialUpdate = false;
    EXPECT_NE(BiModePredictor(cfg).name().find("full-update"),
              std::string::npos);
    cfg = BiModeConfig::canonical(4);
    cfg.alwaysUpdateChoice = true;
    EXPECT_NE(BiModePredictor(cfg).name().find("always-choice"),
              std::string::npos);
}

TEST(BiModeDeath, HistoryWiderThanDirectionIndexIsFatal)
{
    BiModeConfig cfg;
    cfg.directionIndexBits = 4;
    cfg.historyBits = 5;
    // The constructor throws; the factory's fatal surface exits.
    EXPECT_THROW(BiModePredictor{cfg}, ConfigError);
    EXPECT_EXIT(makePredictor("bimode:d=4,h=5"),
                ::testing::ExitedWithCode(1), "cannot exceed");
}

/** Canonical configs across sizes keep every invariant. */
class BiModeSizeTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BiModeSizeTest, DetailInRange)
{
    BiModePredictor predictor(BiModeConfig::canonical(GetParam()));
    std::uint64_t pc = 0x400000;
    for (int i = 0; i < 500; ++i) {
        LastCounterHook served;
        predictor.stepFast(pc, (i / 3) % 2 == 0, served);
        EXPECT_LT(served.id, predictor.directionCounters());
        pc += 4 * ((i % 9) + 1);
    }
}

TEST_P(BiModeSizeTest, LearnsStrongBiasBothDirections)
{
    BiModePredictor predictor(BiModeConfig::canonical(GetParam()));
    for (int i = 0; i < 50; ++i) {
        predictor.update(0x1000, true);
        predictor.update(0x2004, false);
    }
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_FALSE(predictor.predict(0x2004));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BiModeSizeTest,
                         ::testing::Values(4, 7, 9, 11, 14));

} // namespace
} // namespace bpsim
