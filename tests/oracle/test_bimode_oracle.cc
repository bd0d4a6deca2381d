/**
 * @file
 * Diffs the bi-mode predictor (core/bimode.hh) against the naive
 * statement of the paper's Section 2 in naive_bimode.hh, on every
 * path a campaign can take: the solo kernel, the scalar bank and
 * every SIMD tier this host runs. Counts, per-branch tables and final
 * table contents must all match, over geometries and ablations whose
 * edges the kernels could get wrong; a known-wrong variant of the
 * statement must not.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/bimode.hh"
#include "naive_bimode.hh"
#include "oracle_paths.hh"

namespace bpsim
{
namespace
{

using namespace oracle_paths;

BiModeConfig
shape(unsigned d, unsigned c, unsigned h, unsigned w = 2,
      bool partial = true, bool alwaysChoice = false)
{
    return BiModeConfig{d, c, h, w, partial, alwaysChoice};
}

/** The canonical shape, both ablations, c != d both ways, h < d, a
 *  3-bit counter, and everything at once. */
const std::vector<BiModeConfig> kShapes = {
    shape(7, 7, 7),           shape(7, 7, 7, 2, false),
    shape(7, 7, 7, 2, true, true), shape(7, 9, 7),
    shape(8, 5, 4),           shape(7, 7, 7, 3),
    shape(6, 8, 3, 3, false, true),
};

oracle::NaiveBiMode
naive(const BiModeConfig &cfg)
{
    return oracle::NaiveBiMode(cfg.directionIndexBits, cfg.choiceIndexBits,
                               cfg.historyBits, cfg.counterWidth,
                               cfg.partialUpdate, cfg.alwaysUpdateChoice);
}

/** The predictor's tables and history must equal the statement's. */
void
expectSameState(BiModePredictor &core, const oracle::NaiveBiMode &model)
{
    EXPECT_EQ(counters(core.choiceTable()), model.choice);
    EXPECT_EQ(counters(core.takenBank()), model.taken);
    EXPECT_EQ(counters(core.notTakenBank()), model.notTaken);
    EXPECT_EQ(core.historyRef().value(), model.history);
}

/** Every shape on the solo kernel, the scalar bank and every
 *  kernel tier this host runs. */
void
diffAllPaths(const PackedTrace &packed)
{
    std::vector<BiModePredictor> cores;
    std::vector<oracle::NaiveBiMode> models;
    for (const BiModeConfig &cfg : kShapes) {
        cores.emplace_back(cfg);
        models.push_back(naive(cfg));
    }
    oracle_paths::diffAllPaths(cores, models, packed,
                               availableKernelTiers(), expectSameState);
}

TEST(BiModeOracle, AliasedStreamOnEveryPath)
{
    diffAllPaths(aliasedTrace());
}

TEST(BiModeOracle, GccTraceOnEveryPath)
{
    diffAllPaths(gccTrace());
}

/** A known-wrong statement: the choice table indexed by the global
 *  history instead of the branch address. */
struct HistoryIndexedChoice : oracle::NaiveBiMode
{
    using NaiveBiMode::NaiveBiMode;

    std::size_t choiceIndex(std::uint64_t) const override
    {
        return history % choice.size();
    }
};

TEST(BiModeOracle, DiffCatchesAHistoryIndexedChoice)
{
    for (const BiModeConfig &cfg : kShapes) {
        SCOPED_TRACE(BiModePredictor(cfg).name());
        HistoryIndexedChoice mutant(
            cfg.directionIndexBits, cfg.choiceIndexBits, cfg.historyBits,
            cfg.counterWidth, cfg.partialUpdate, cfg.alwaysUpdateChoice);
        const SimResult wrong = runModel(mutant, aliasedTrace());
        EXPECT_TRUE(differs(BiModePredictor(cfg), aliasedTrace(), wrong));
    }
}

} // namespace
} // namespace bpsim
