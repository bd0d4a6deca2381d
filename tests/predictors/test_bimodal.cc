/** @file Tests for the bimodal (Smith) predictor. */

#include <gtest/gtest.h>

#include "predictors/bimodal.hh"

namespace bpsim
{
namespace
{

TEST(Bimodal, StartsWeaklyTaken)
{
    BimodalPredictor predictor(4);
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Bimodal, LearnsNotTakenBias)
{
    BimodalPredictor predictor(4);
    predictor.update(0x1000, false);
    predictor.update(0x1000, false);
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Bimodal, PerAddressIsolationWithinTable)
{
    BimodalPredictor predictor(8);
    for (int i = 0; i < 4; ++i)
        predictor.update(0x1000, false);
    EXPECT_FALSE(predictor.predict(0x1000));
    EXPECT_TRUE(predictor.predict(0x1004)) << "other slot untouched";
}

TEST(Bimodal, AliasedAddressesShareCounter)
{
    BimodalPredictor predictor(4);
    // 4 index bits of word address: pcs 16 words (64 bytes) apart
    // alias onto the same counter.
    for (int i = 0; i < 4; ++i)
        predictor.update(0x1000, false);
    EXPECT_FALSE(predictor.predict(0x1000 + 64));
    EXPECT_EQ(predictor.indexFor(0x1000), predictor.indexFor(0x1040));
}

TEST(Bimodal, TracksBiasFlip)
{
    BimodalPredictor predictor(4);
    for (int i = 0; i < 10; ++i)
        predictor.update(0x1000, true);
    EXPECT_TRUE(predictor.predict(0x1000));
    for (int i = 0; i < 3; ++i)
        predictor.update(0x1000, false);
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Bimodal, DetailReportsCounter)
{
    BimodalPredictor predictor(6);
    const std::uint64_t id = servingCounter(predictor, 0x1234);
    EXPECT_EQ(id, predictor.indexFor(0x1234));
    EXPECT_LT(id, predictor.directionCounters());
}

TEST(Bimodal, ResetRestoresInitialState)
{
    BimodalPredictor predictor(4);
    for (int i = 0; i < 4; ++i)
        predictor.update(0x1000, false);
    predictor.reset();
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Bimodal, StorageAccounting)
{
    BimodalPredictor predictor(12);
    EXPECT_EQ(predictor.storageBits(), 4096u * 2);
    EXPECT_EQ(predictor.counterBits(), 4096u * 2);
    EXPECT_EQ(predictor.directionCounters(), 4096u);
}

TEST(Bimodal, NameIncludesConfig)
{
    EXPECT_EQ(BimodalPredictor(12).name(), "bimodal(n=12)");
}

TEST(Bimodal, PredictIsConstStable)
{
    const BimodalPredictor predictor(4);
    const bool first = predictor.predict(0x1000);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(predictor.predict(0x1000), first);
}

} // namespace
} // namespace bpsim
