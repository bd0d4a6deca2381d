/**
 * @file
 * Diffs gshare (predictors/gshare.hh) against McFarling's statement
 * in naive_gshare.hh on every path a campaign can take: the solo
 * kernel, the scalar bank and every SIMD tier this host runs. Counts,
 * per-branch tables and final table contents must all match, from
 * the one-PHT shape to history-free and multi-PHT ones; a known-wrong
 * variant of the statement must not.
 */

#include <gtest/gtest.h>

#include <vector>

#include "naive_gshare.hh"
#include "oracle_paths.hh"
#include "predictors/gshare.hh"

namespace bpsim
{
namespace
{

using namespace oracle_paths;

struct Shape
{
    unsigned n, m, w;
};

/** One PHT, multi-PHT (m < n), no history, and 3-bit counters. */
const std::vector<Shape> kShapes = {
    {7, 7, 2}, {7, 3, 2}, {8, 5, 2}, {7, 0, 2}, {6, 6, 3}, {9, 4, 3},
};

/** The predictor's table and history must equal the statement's. */
void
expectSameState(GsharePredictor &core, const oracle::NaiveGshare &model)
{
    EXPECT_EQ(counters(core.tableRef()), model.counters);
    EXPECT_EQ(core.historyRef().value(), model.history);
}

void
diffShapes(const PackedTrace &packed)
{
    std::vector<GsharePredictor> cores;
    std::vector<oracle::NaiveGshare> models;
    for (const Shape &s : kShapes) {
        cores.emplace_back(s.n, s.m, s.w);
        models.emplace_back(s.n, s.m, s.w);
    }
    diffAllPaths(cores, models, packed, availableKernelTiers(),
                 expectSameState);
}

TEST(GshareOracle, AliasedStreamOnEveryPath)
{
    diffShapes(aliasedTrace());
}

TEST(GshareOracle, GccTraceOnEveryPath)
{
    diffShapes(gccTrace());
}

/** A known-wrong statement: the history concatenated below n - m
 *  address bits instead of xor-ed into the low ones. */
struct ConcatenatedGshare : oracle::NaiveGshare
{
    using NaiveGshare::NaiveGshare;

    std::size_t index(std::uint64_t pc) const override
    {
        const std::uint64_t tables = counters.size() >> historyBits;
        return (((pc >> 2) % tables) << historyBits) | history;
    }
};

TEST(GshareOracle, DiffCatchesConcatenationForXor)
{
    for (const Shape &s : kShapes) {
        if (s.m == 0)
            continue; // no history: both statements agree
        SCOPED_TRACE(GsharePredictor(s.n, s.m, s.w).name());
        ConcatenatedGshare mutant(s.n, s.m, s.w);
        const SimResult wrong = runModel(mutant, aliasedTrace());
        EXPECT_TRUE(
            differs(GsharePredictor(s.n, s.m, s.w), aliasedTrace(), wrong));
    }
}

} // namespace
} // namespace bpsim
