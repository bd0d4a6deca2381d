/** @file Tests for the McFarling tournament predictor. */

#include <gtest/gtest.h>

#include "predictors/tournament.hh"

namespace bpsim
{
namespace
{

/** Bimodal counters (ids below this) in a TournamentPredictor(6). */
constexpr std::uint64_t kBimodalCounters = 64;

TEST(Tournament, SelectsBetterComponent)
{
    // An alternating branch: full-history gshare learns both
    // patterns, the one bimodal counter keeps predicting taken. On
    // every not-taken outcome the components disagree and gshare is
    // right, so the meta table must learn to trust gshare.
    TournamentPredictor predictor(6);
    bool outcome = true;
    for (int i = 0; i < 40; ++i, outcome = !outcome)
        predictor.update(0x1000, outcome);
    EXPECT_GE(servingCounter(predictor, 0x1000), kBimodalCounters);
    EXPECT_EQ(predictor.predict(0x1000), outcome);
}

TEST(Tournament, SwitchesWhenBehaviorChanges)
{
    TournamentPredictor predictor(6);
    bool outcome = true;
    for (int i = 0; i < 40; ++i, outcome = !outcome)
        predictor.update(0x1000, outcome);
    EXPECT_GE(servingCounter(predictor, 0x1000), kBimodalCounters);
    // Now always not-taken: bimodal learns it in two outcomes while
    // each history gshare passes through starts weakly taken, so the
    // components disagree with bimodal right until the meta table
    // hands the branch back to bimodal.
    for (int i = 0; i < 20; ++i)
        predictor.update(0x1000, false);
    EXPECT_LT(servingCounter(predictor, 0x1000), kBimodalCounters);
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Tournament, MetaTrainsOnlyOnDisagreement)
{
    // An always-taken branch: both components start weakly taken and
    // stay right, so they never disagree and the meta counter keeps
    // its power-on value.
    TournamentPredictor predictor(6);
    const std::size_t meta_index = (0x1000 >> 2) & 63;
    const std::uint8_t fresh = predictor.metaTableRef().value(meta_index);
    for (int i = 0; i < 20; ++i)
        predictor.update(0x1000, true);
    EXPECT_EQ(predictor.metaTableRef().value(meta_index), fresh);
    EXPECT_TRUE(predictor.predict(0x1000));
    // Alternation splits them (gshare learns it, bimodal cannot), and
    // the disagreements move the meta counter.
    bool outcome = false;
    for (int i = 0; i < 40; ++i, outcome = !outcome)
        predictor.update(0x1000, outcome);
    EXPECT_NE(predictor.metaTableRef().value(meta_index), fresh);
}

TEST(Tournament, StandardConfigBeatsComponentsOnMixedWork)
{
    // A branch that alternates (gshare food) plus a strongly biased
    // branch that aliases it in the gshare table (bimodal food).
    TournamentPredictor tournament(6);
    bool alt = false;
    int wrong = 0;
    const int rounds = 400;
    for (int i = 0; i < rounds; ++i) {
        wrong += tournament.predict(0x1000) != alt;
        tournament.update(0x1000, alt);
        alt = !alt;
        wrong += tournament.predict(0x2004) != true;
        tournament.update(0x2004, true);
    }
    EXPECT_LT(wrong, rounds / 4);
}

TEST(Tournament, CounterIdsRemappedAcrossComponents)
{
    TournamentPredictor predictor(5);
    EXPECT_EQ(predictor.directionCounters(), 32u + 32u);
    // Fresh meta is weakly-taken -> selects gshare; its ids must be
    // offset past bimodal's range.
    const std::uint64_t id = servingCounter(predictor, 0x1000);
    EXPECT_GE(id, 32u);
    EXPECT_LT(id, 64u);
}

TEST(Tournament, StorageSumsComponentsAndMeta)
{
    TournamentPredictor predictor(5);
    EXPECT_EQ(predictor.counterBits(), 32u * 2 + 32u * 2 + 32u * 2);
    EXPECT_EQ(predictor.storageBits(), 32u * 2 + 32u * 2 + 32u * 2 + 5u);
}

TEST(Tournament, ResetRestoresEverything)
{
    TournamentPredictor predictor(5);
    for (int i = 0; i < 30; ++i)
        predictor.update(0x1000, false);
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Tournament, NameListsComponents)
{
    const TournamentPredictor predictor(6);
    const std::string name = predictor.name();
    EXPECT_NE(name.find("bimodal"), std::string::npos);
    EXPECT_NE(name.find("gshare"), std::string::npos);
    EXPECT_NE(name.find("tournament"), std::string::npos);
}

} // namespace
} // namespace bpsim
