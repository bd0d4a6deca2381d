/** @file Tests for the static baseline predictors. */

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "predictors/static_predictors.hh"

namespace bpsim
{
namespace
{

TEST(AlwaysTaken, PredictsTaken)
{
    AlwaysTakenPredictor predictor;
    EXPECT_TRUE(predictor.predict(0x1000));
    predictor.update(0x1000, false);
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_EQ(predictor.storageBits(), 0u);
    EXPECT_EQ(predictor.directionCounters(), 0u);
}

TEST(AlwaysNotTaken, PredictsNotTaken)
{
    AlwaysNotTakenPredictor predictor;
    EXPECT_FALSE(predictor.predict(0x1000));
    predictor.update(0x1000, true);
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(StaticPredictors, ReportNoCounters)
{
    // No direction counters and no fast core, hence no counter hook.
    AlwaysTakenPredictor taken;
    AlwaysNotTakenPredictor not_taken;
    BtfnPredictor btfn(8);
    for (BranchPredictor *predictor :
         {static_cast<BranchPredictor *>(&taken),
          static_cast<BranchPredictor *>(&not_taken),
          static_cast<BranchPredictor *>(&btfn)}) {
        EXPECT_EQ(predictor->directionCounters(), 0u);
        EXPECT_FALSE(visitFastPredictor(*predictor, [](auto &) {}));
    }
}

TEST(Btfn, DefaultsToNotTaken)
{
    BtfnPredictor predictor(8);
    EXPECT_FALSE(predictor.predict(0x1000))
        << "unknown branches default to forward/not-taken";
}

TEST(Btfn, BackwardBranchPredictedTaken)
{
    BtfnPredictor predictor(8);
    predictor.observeTarget(0x1000, 0x0f00); // backward target
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Btfn, ForwardBranchPredictedNotTaken)
{
    BtfnPredictor predictor(8);
    predictor.observeTarget(0x1000, 0x1100); // forward target
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Btfn, SelfTargetCountsAsBackward)
{
    BtfnPredictor predictor(8);
    predictor.observeTarget(0x1000, 0x1000);
    EXPECT_TRUE(predictor.predict(0x1000));
}

TEST(Btfn, UpdateDoesNotChangeSense)
{
    BtfnPredictor predictor(8);
    predictor.observeTarget(0x1000, 0x0f00);
    for (int i = 0; i < 10; ++i)
        predictor.update(0x1000, false);
    EXPECT_TRUE(predictor.predict(0x1000))
        << "BTFN is static: outcomes must not retrain it";
}

TEST(Btfn, ResetForgetsSenses)
{
    BtfnPredictor predictor(8);
    predictor.observeTarget(0x1000, 0x0f00);
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x1000));
}

TEST(Btfn, StorageAccounting)
{
    BtfnPredictor predictor(10);
    EXPECT_EQ(predictor.storageBits(), 1024u * 2);
}

TEST(Btfn, AliasedSlotsShareSense)
{
    BtfnPredictor predictor(4);
    predictor.observeTarget(0x1000, 0x0f00);
    // 64-byte stride aliases at 4 index bits.
    EXPECT_TRUE(predictor.predict(0x1040));
}

} // namespace
} // namespace bpsim
