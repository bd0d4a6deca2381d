/** @file Tests for the YAGS predictor. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/factory.hh"
#include "predictors/yags.hh"

namespace bpsim
{
namespace
{

YagsConfig
tinyConfig()
{
    YagsConfig cfg;
    cfg.choiceIndexBits = 6;
    cfg.cacheIndexBits = 4;
    cfg.tagBits = 6;
    cfg.historyBits = 0;
    return cfg;
}

/** Entries per cache in tinyConfig(). */
constexpr std::uint64_t kCacheEntries = 16;
/** servingTable() of the choice table: its counter ids follow both
 *  caches'. */
constexpr std::uint64_t kChoiceTable = 2;

/** Which table serves @p pc: a cache, or kChoiceTable. */
std::uint64_t
servingTable(const YagsPredictor &predictor, std::uint64_t pc)
{
    return std::min(servingCounter(predictor, pc) / kCacheEntries,
                    kChoiceTable);
}

TEST(Yags, FallsBackToChoiceWhenCacheMisses)
{
    YagsPredictor predictor(tinyConfig());
    // Fresh predictor: caches empty, choice weakly-taken.
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_EQ(servingTable(predictor, 0x1000), kChoiceTable);
}

TEST(Yags, LearnsStrongBiases)
{
    YagsPredictor predictor(tinyConfig());
    for (int i = 0; i < 20; ++i) {
        predictor.update(0x1000, true);
        predictor.update(0x2004, false);
    }
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_FALSE(predictor.predict(0x2004));
}

TEST(Yags, AllocatesExceptionOnBiasDeviation)
{
    YagsPredictor predictor(tinyConfig());
    // Establish a taken bias.
    for (int i = 0; i < 6; ++i)
        predictor.update(0x1000, true);
    // One deviation allocates a not-taken-cache entry...
    predictor.update(0x1000, false);
    // ...which now serves the prediction (cache hit overrides).
    EXPECT_EQ(servingTable(predictor, 0x1000),
              YagsPredictor::kNotTakenCache);
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Yags, NoAllocationWhenChoiceCorrect)
{
    YagsPredictor predictor(tinyConfig());
    for (int i = 0; i < 6; ++i)
        predictor.update(0x1000, true);
    // Outcome agrees with the bias: no exception entry is created.
    EXPECT_EQ(servingTable(predictor, 0x1000), kChoiceTable);
}

TEST(Yags, TagsSeparateAliasedBranches)
{
    YagsPredictor predictor(tinyConfig());
    // Two pcs sharing a cache index (4 bits) but with distinct tags.
    const std::uint64_t pc_a = 0x1000;
    const std::uint64_t pc_b = pc_a + (1ULL << (2 + 4)); // differs above
    // Train A taken-biased with one exception; B stays not-taken.
    for (int i = 0; i < 6; ++i)
        predictor.update(pc_a, true);
    predictor.update(pc_a, false); // allocates NT-cache for A's tag
    for (int i = 0; i < 6; ++i)
        predictor.update(pc_b, false);
    // B's choice is NT; it consults the taken cache, where A's NT
    // entry must not match (different tag / different cache).
    EXPECT_FALSE(predictor.predict(pc_b));
}

TEST(Yags, DeAliasesOppositeBiasedBranches)
{
    YagsConfig cfg = tinyConfig();
    cfg.choiceIndexBits = 8;
    YagsPredictor predictor(cfg);
    const std::uint64_t pc_taken = 0x1000;
    const std::uint64_t pc_not_taken = 0x1040;
    int wrong = 0;
    for (int i = 0; i < 100; ++i) {
        wrong += predictor.predict(pc_taken) != true;
        predictor.update(pc_taken, true);
        wrong += predictor.predict(pc_not_taken) != false;
        predictor.update(pc_not_taken, false);
    }
    EXPECT_LE(wrong, 3);
}

TEST(Yags, StorageAccountsTagsSeparately)
{
    YagsConfig cfg;
    cfg.choiceIndexBits = 10;
    cfg.cacheIndexBits = 8;
    cfg.tagBits = 6;
    cfg.historyBits = 8;
    YagsPredictor predictor(cfg);
    // counterBits: choice counters + cache counters only.
    EXPECT_EQ(predictor.counterBits(), 1024u * 2 + 2 * 256 * 2);
    // storage adds tags, valid bits and the history register.
    EXPECT_EQ(predictor.storageBits(),
              1024u * 2 + 2 * 256 * (1 + 6 + 2) + 8);
}

TEST(Yags, ResetClearsCaches)
{
    YagsPredictor predictor(tinyConfig());
    for (int i = 0; i < 6; ++i)
        predictor.update(0x1000, true);
    predictor.update(0x1000, false);
    predictor.reset();
    EXPECT_EQ(servingTable(predictor, 0x1000), kChoiceTable);
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Yags, DetailInRange)
{
    YagsConfig cfg;
    cfg.choiceIndexBits = 8;
    cfg.cacheIndexBits = 6;
    cfg.tagBits = 5;
    cfg.historyBits = 6;
    YagsPredictor predictor(cfg);
    std::uint64_t pc = 0x400000;
    for (int i = 0; i < 400; ++i) {
        LastCounterHook served;
        predictor.stepFast(pc, (i % 7) < 4, served);
        EXPECT_LT(served.id, predictor.directionCounters());
        pc += 4 * ((i % 11) + 1);
    }
}

TEST(YagsDeath, HistoryWiderThanCacheIndexIsFatal)
{
    YagsConfig cfg;
    cfg.cacheIndexBits = 4;
    cfg.historyBits = 6;
    // The constructor throws; the factory's fatal surface exits.
    EXPECT_THROW(YagsPredictor{cfg}, ConfigError);
    EXPECT_EXIT(makePredictor("yags:c=8,n=4,h=6"),
                ::testing::ExitedWithCode(1), "cannot exceed");
}

} // namespace
} // namespace bpsim
