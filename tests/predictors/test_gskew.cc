/** @file Tests for the gskew (skewed) predictor. */

#include <gtest/gtest.h>

#include <set>

#include "predictors/gskew.hh"

namespace bpsim
{
namespace
{

GskewConfig
smallConfig()
{
    GskewConfig cfg;
    cfg.bankIndexBits = 6;
    cfg.historyBits = 4;
    return cfg;
}

TEST(Gskew, LearnsStrongBiases)
{
    // History 0 keeps the indices fixed so interleaved training of
    // two branches converges regardless of history phase.
    GskewConfig cfg = smallConfig();
    cfg.historyBits = 0;
    GskewPredictor predictor(cfg);
    for (int i = 0; i < 30; ++i) {
        predictor.step(0x1000, true);
        predictor.step(0x2004, false);
    }
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
    EXPECT_FALSE(predictionFor(predictor, 0x2004));
}

TEST(Gskew, BankZeroIsAddressIndexed)
{
    GskewPredictor predictor(smallConfig());
    const std::size_t before = predictor.indexFor(0, 0x1000);
    predictor.step(0x1000, true);
    predictor.step(0x1000, false);
    EXPECT_EQ(predictor.indexFor(0, 0x1000), before)
        << "the bimodal bank must ignore history";
}

TEST(Gskew, HashedBanksDependOnHistory)
{
    GskewPredictor predictor(smallConfig());
    const std::size_t b1 = predictor.indexFor(1, 0x1000);
    const std::size_t b2 = predictor.indexFor(2, 0x1000);
    predictor.step(0x1000, true);
    // After a history change at least one hashed bank must move.
    EXPECT_TRUE(predictor.indexFor(1, 0x1000) != b1 ||
                predictor.indexFor(2, 0x1000) != b2);
}

TEST(Gskew, SkewingDispersesConflicts)
{
    // The skewing property: pairs that collide in one bank should
    // rarely collide in the others.
    GskewPredictor predictor(smallConfig());
    int total_pairs = 0, double_collisions = 0;
    for (std::uint64_t a = 0; a < 40; ++a) {
        for (std::uint64_t b = a + 1; b < 40; ++b) {
            const std::uint64_t pc_a = 0x1000 + 4 * a * 67;
            const std::uint64_t pc_b = 0x1000 + 4 * b * 67;
            int collisions = 0;
            for (unsigned bank = 0; bank < 3; ++bank) {
                collisions += predictor.indexFor(bank, pc_a) ==
                              predictor.indexFor(bank, pc_b);
            }
            total_pairs += collisions >= 1;
            double_collisions += collisions >= 2;
        }
    }
    ASSERT_GT(total_pairs, 0);
    EXPECT_LT(double_collisions * 5, total_pairs)
        << "most single-bank conflicts must not repeat in other banks";
}

TEST(Gskew, MajorityOutvotesOneCorruptedBank)
{
    GskewPredictor predictor(smallConfig());
    // Train a strong taken branch.
    for (int i = 0; i < 20; ++i)
        predictor.step(0x1000, true);
    ASSERT_TRUE(predictionFor(predictor, 0x1000));
    // A colliding branch in one bank cannot flip the majority.
    // (Find a pc that collides with 0x1000 in bank 0 only.)
    std::uint64_t collider = 0;
    for (std::uint64_t cand = 0x1000 + 256; cand < 0x40000; cand += 4) {
        const bool hit0 = predictor.indexFor(0, cand) ==
                          predictor.indexFor(0, 0x1000);
        const bool hit1 = predictor.indexFor(1, cand) ==
                          predictor.indexFor(1, 0x1000);
        const bool hit2 = predictor.indexFor(2, cand) ==
                          predictor.indexFor(2, 0x1000);
        if (hit0 && !hit1 && !hit2) {
            collider = cand;
            break;
        }
    }
    ASSERT_NE(collider, 0u) << "no single-bank collider found";
    for (int i = 0; i < 4; ++i)
        predictor.step(collider, false);
    EXPECT_TRUE(predictionFor(predictor, 0x1000))
        << "two clean banks must outvote the corrupted one";
}

TEST(Gskew, PartialUpdatePreservesDissenters)
{
    GskewConfig cfg = smallConfig();
    cfg.partialUpdate = true;
    GskewPredictor predictor(cfg);
    // On a correct prediction, a dissenting bank keeps its state;
    // verify indirectly: train strongly taken, then one not-taken
    // outcome (misprediction -> all banks retrain).
    for (int i = 0; i < 10; ++i)
        predictor.step(0x1000, true);
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
}

TEST(Gskew, StorageAccounting)
{
    GskewConfig cfg;
    cfg.bankIndexBits = 10;
    cfg.historyBits = 10;
    GskewPredictor predictor(cfg);
    EXPECT_EQ(predictor.counterBits(), 3u * 1024 * 2);
    EXPECT_EQ(predictor.storageBits(), 3u * 1024 * 2 + 10);
}

TEST(Gskew, ResetRestoresTakenDefault)
{
    GskewPredictor predictor(smallConfig());
    for (int i = 0; i < 20; ++i)
        predictor.step(0x1000, false);
    predictor.reset();
    EXPECT_TRUE(predictionFor(predictor, 0x1000));
}

TEST(Gskew, DetailReportsBimodalBank)
{
    GskewPredictor predictor(smallConfig());
    const std::uint64_t id = servingCounter(predictor, 0x1000);
    EXPECT_EQ(id, predictor.indexFor(0, 0x1000));
    EXPECT_LT(id, predictor.directionCounters());
}

} // namespace
} // namespace bpsim
