/** @file Tests for the filtering predictor (Chang et al.). */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "predictors/filter.hh"

namespace bpsim
{
namespace
{

FilterConfig
tinyConfig()
{
    FilterConfig cfg;
    cfg.indexBits = 4;
    cfg.historyBits = 0;
    cfg.filterIndexBits = 8;
    cfg.filterCounterBits = 3; // saturates at 7
    return cfg;
}

TEST(Filter, UnfilteredBranchUsesPht)
{
    FilterPredictor predictor(tinyConfig());
    EXPECT_FALSE(predictor.isFiltered(0x1000));
    EXPECT_EQ(servingCounter(predictor, 0x1000),
              predictor.phtIndexFor(0x1000));
    EXPECT_TRUE(predictionFor(predictor, 0x1000))
        << "PHT starts weakly-taken";
}

TEST(Filter, LongRunEngagesFilter)
{
    FilterPredictor predictor(tinyConfig());
    for (int i = 0; i < 7; ++i)
        predictor.step(0x1000, false);
    EXPECT_TRUE(predictor.isFiltered(0x1000));
    // Filter entries' ids follow the 16 PHT counters'.
    EXPECT_EQ(servingCounter(predictor, 0x1000),
              16u + predictor.filterIndexFor(0x1000));
    EXPECT_FALSE(predictionFor(predictor, 0x1000));
}

TEST(Filter, DirectionChangeDisengagesFilter)
{
    FilterPredictor predictor(tinyConfig());
    for (int i = 0; i < 10; ++i)
        predictor.step(0x1000, true);
    ASSERT_TRUE(predictor.isFiltered(0x1000));
    predictor.step(0x1000, false);
    EXPECT_FALSE(predictor.isFiltered(0x1000));
}

TEST(Filter, FilteredBranchesDoNotPolluteThePht)
{
    // A strongly taken branch saturates its filter; afterwards an
    // aliased opposite-biased branch owns the PHT slot outright.
    FilterPredictor predictor(tinyConfig());
    const std::uint64_t pc_taken = 0x1000;
    const std::uint64_t pc_not_taken = 0x1040; // same PHT slot (4 bits)
    // Engage the filter on the taken branch.
    for (int i = 0; i < 8; ++i)
        predictor.step(pc_taken, true);
    ASSERT_TRUE(predictor.isFiltered(pc_taken));
    // The not-taken branch trains the PHT undisturbed.
    int wrong = 0;
    for (int i = 0; i < 50; ++i) {
        wrong += predictor.step(pc_not_taken, false) != false;
        wrong += predictor.step(pc_taken, true) != true;
    }
    EXPECT_LE(wrong, 2) << "filtering must remove the interference";
}

TEST(Filter, UnfilteredConflictStillInterferes)
{
    // Sanity check of the mechanism: with the filter disabled by a
    // huge saturation requirement... approximated by alternating
    // directions so no run ever saturates, the PHT conflict remains.
    FilterPredictor predictor(tinyConfig());
    const std::uint64_t pc_a = 0x1000, pc_b = 0x1040;
    int wrong = 0;
    for (int i = 0; i < 40; ++i) {
        const bool a_outcome = i % 2 == 0; // alternates: never filtered
        wrong += predictor.step(pc_a, a_outcome) != a_outcome;
        wrong += predictor.step(pc_b, !a_outcome) != !a_outcome;
    }
    EXPECT_GT(wrong, 20);
}

TEST(Filter, CounterIdsSpanPhtAndFilter)
{
    FilterPredictor predictor(tinyConfig());
    EXPECT_LT(servingCounter(predictor, 0x1000), 16u);
    for (int i = 0; i < 8; ++i)
        predictor.step(0x1000, true);
    const std::uint64_t filter_id = servingCounter(predictor, 0x1000);
    EXPECT_GE(filter_id, 16u);
    EXPECT_LT(filter_id, predictor.directionCounters());
}

TEST(Filter, ResetDisengagesEverything)
{
    FilterPredictor predictor(tinyConfig());
    for (int i = 0; i < 8; ++i)
        predictor.step(0x1000, false);
    predictor.reset();
    EXPECT_FALSE(predictor.isFiltered(0x1000));
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
}

TEST(Filter, StorageAccounting)
{
    FilterConfig cfg;
    cfg.indexBits = 10;
    cfg.historyBits = 10;
    cfg.filterIndexBits = 9;
    cfg.filterCounterBits = 6;
    FilterPredictor predictor(cfg);
    EXPECT_EQ(predictor.counterBits(), 1024u * 2);
    // PHT + history + filter entries (1 direction + 6 counter bits).
    EXPECT_EQ(predictor.storageBits(), 1024u * 2 + 10 + 512u * 7);
    EXPECT_EQ(predictor.directionCounters(), 1024u + 512u);
}

TEST(FilterDeath, BadConfigIsFatal)
{
    // The constructor throws; the factory's fatal surface exits.
    FilterConfig cfg = tinyConfig();
    cfg.historyBits = 5;
    EXPECT_THROW(FilterPredictor{cfg}, ConfigError);
    cfg = tinyConfig();
    cfg.filterCounterBits = 0;
    EXPECT_THROW(FilterPredictor{cfg}, ConfigError);
    EXPECT_EXIT(makePredictor("filter:n=4,h=5"),
                ::testing::ExitedWithCode(1), "cannot exceed");
    EXPECT_EXIT(makePredictor("filter:n=4,k=0"),
                ::testing::ExitedWithCode(1), "run counter");
}

} // namespace
} // namespace bpsim
