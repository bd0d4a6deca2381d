/**
 * @file
 * Diffs the two-level family (predictors/twolevel.hh: GAg, GAs, PAg,
 * PAs) against Yeh and Patt's statement in naive_twolevel.hh on the
 * paths a campaign takes for it, the solo kernel and the scalar bank.
 * Counts and per-branch tables must match, over history lengths,
 * pattern-table counts and register-table sizes down to heavy
 * register aliasing; a known-wrong variant of the statement must not.
 */

#include <gtest/gtest.h>

#include <vector>

#include "naive_twolevel.hh"
#include "oracle_paths.hh"
#include "predictors/twolevel.hh"

namespace bpsim
{
namespace
{

using namespace oracle_paths;

TwoLevelConfig
withWidth(TwoLevelConfig config, unsigned w)
{
    config.counterWidth = w;
    return config;
}

/** Every taxonomy point, short and long histories, one to sixteen
 *  pattern tables, 4 to 1024 registers, and 3-bit counters. */
const std::vector<TwoLevelConfig> kShapes = {
    makeGAg(8),       withWidth(makeGAg(5), 3),
    makeGAs(6, 3),    makeGAs(4, 4),
    makePAg(6, 7),    makePAg(4, 2),
    makePAg(8, 10),   makePAs(5, 7, 3),
    withWidth(makePAs(4, 3, 2), 3),
};

oracle::NaiveTwoLevel
naive(const TwoLevelConfig &cfg)
{
    return oracle::NaiveTwoLevel(cfg.historyBits, cfg.pcBits,
                                 cfg.localEntriesLog2,
                                 cfg.scope == HistoryScope::PerAddress,
                                 cfg.counterWidth);
}

void
diffShapes(const PackedTrace &packed)
{
    std::vector<TwoLevelPredictor> cores;
    std::vector<oracle::NaiveTwoLevel> models;
    for (const TwoLevelConfig &cfg : kShapes) {
        cores.emplace_back(cfg);
        models.push_back(naive(cfg));
    }
    // No SIMD flattening runs this family, and its tables have no
    // accessor: counts and per-branch rows carry the diff.
    diffAllPaths(cores, models, packed, {},
                 [](TwoLevelPredictor &, const oracle::NaiveTwoLevel &) {});
}

TEST(TwoLevelOracle, AliasedStreamOnEveryPath)
{
    diffShapes(aliasedTrace());
}

TEST(TwoLevelOracle, GccTraceOnEveryPath)
{
    diffShapes(gccTrace());
}

/** A known-wrong statement: the per-address register selected by the
 *  recent global outcomes instead of the branch address. */
struct HistorySelectedRegister : oracle::NaiveTwoLevel
{
    using NaiveTwoLevel::NaiveTwoLevel;

    std::uint64_t &registerOf(std::uint64_t) override
    {
        return registers[recent % registers.size()];
    }

    bool step(std::uint64_t pc, bool outcome)
    {
        const bool prediction = NaiveTwoLevel::step(pc, outcome);
        recent = (recent << 1) | (outcome ? 1 : 0);
        return prediction;
    }

    std::uint64_t recent = 0;
};

TEST(TwoLevelOracle, DiffCatchesAHistorySelectedRegister)
{
    for (const TwoLevelConfig &cfg : kShapes) {
        if (cfg.scope != HistoryScope::PerAddress)
            continue; // one global register: nothing to select
        SCOPED_TRACE(TwoLevelPredictor(cfg).name());
        HistorySelectedRegister mutant(cfg.historyBits, cfg.pcBits,
                                       cfg.localEntriesLog2, true,
                                       cfg.counterWidth);
        const SimResult wrong = runModel(mutant, aliasedTrace());
        EXPECT_TRUE(differs(TwoLevelPredictor(cfg), aliasedTrace(), wrong));
    }
}

} // namespace
} // namespace bpsim
