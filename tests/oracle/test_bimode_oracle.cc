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

#include <algorithm>
#include <map>
#include <vector>

#include "core/bimode.hh"
#include "naive_bimode.hh"
#include "sim/replay.hh"
#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

/** A seeded stream over 1024 pcs, about eight per choice counter at
 *  c = 7: a third random, a third 90% taken and a third copying the
 *  outcome three branches back, with 10% noise. */
const PackedTrace &
aliasedTrace()
{
    static const PackedTrace packed = [] {
        Rng rng(0xb1d0);
        MemoryTrace trace;
        std::uint64_t history = 0;
        for (int i = 0; i < 40'000; ++i) {
            const std::uint64_t slot = rng.nextBounded(1024);
            bool taken = false;
            switch (slot % 3) {
              case 0:
                taken = rng.nextBool(0.5);
                break;
              case 1:
                taken = rng.nextBool(0.9);
                break;
              default:
                taken = (((history >> 2) & 1) != 0) != rng.nextBool(0.1);
                break;
            }
            BranchRecord record;
            record.pc = 0x400000 + 4 * slot;
            record.target = record.pc + 64;
            record.type = BranchType::Conditional;
            record.taken = taken;
            trace.append(record);
            history = (history << 1) | (taken ? 1 : 0);
        }
        return PackedTrace(trace);
    }();
    return packed;
}

/** The first 100k records of gcc's trace, packed. */
const PackedTrace &
gccTrace()
{
    static const PackedTrace packed = [] {
        WorkloadSpec spec = *findBenchmark("gcc");
        spec.dynamicBranches = 100'000;
        return PackedTrace(generateWorkloadTrace(spec));
    }();
    return packed;
}

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

/** What the statement says a run over @p packed yields. */
SimResult
runModel(oracle::NaiveBiMode &model, const PackedTrace &packed)
{
    SimResult result;
    std::map<std::uint64_t, PerBranchResult> rows;
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const std::uint64_t pc = packed.pc(i);
        const bool taken = packed.taken(i);
        const bool missed = model.step(pc, taken) != taken;
        PerBranchResult &row = rows[pc];
        row.pc = pc;
        ++row.executions;
        row.takenCount += taken ? 1 : 0;
        row.mispredictions += missed ? 1 : 0;
        ++result.branches;
        result.takenBranches += taken ? 1 : 0;
        result.mispredictions += missed ? 1 : 0;
    }
    for (const auto &entry : rows)
        result.perBranch.push_back(entry.second);
    // The simulator's order: hottest first, then by pc.
    std::stable_sort(result.perBranch.begin(), result.perBranch.end(),
                     [](const PerBranchResult &a, const PerBranchResult &b) {
                         return a.executions > b.executions;
                     });
    return result;
}

std::vector<int>
counters(const CounterTable &table)
{
    std::vector<int> values(table.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        values[i] = table.value(i);
    return values;
}

/** True when @p actual matches @p expected in counts and, when the
 *  run tracked them, per-branch rows. */
bool
sameRun(const SimResult &actual, const SimResult &expected)
{
    const auto row = [](const PerBranchResult &r) {
        return std::vector<std::uint64_t>{r.pc, r.executions,
                                          r.mispredictions, r.takenCount};
    };
    bool same = actual.branches == expected.branches &&
                actual.mispredictions == expected.mispredictions &&
                actual.takenBranches == expected.takenBranches;
    if (!actual.perBranch.empty()) {
        same = same && actual.perBranch.size() == expected.perBranch.size();
        for (std::size_t i = 0; same && i < actual.perBranch.size(); ++i)
            same = row(actual.perBranch[i]) == row(expected.perBranch[i]);
    }
    return same;
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

/**
 * Runs every shape over @p packed on the solo kernel, the scalar bank
 * (both tracking per-branch rows) and each available kernel tier, and
 * diffs each lane against the statement.
 */
void
diffAllPaths(const PackedTrace &packed)
{
    std::vector<SimResult> expected;
    std::vector<oracle::NaiveBiMode> models;
    for (const BiModeConfig &cfg : kShapes) {
        models.push_back(naive(cfg));
        expected.push_back(runModel(models.back(), packed));
        ASSERT_GT(expected.back().mispredictions, 0u);
    }

    SimConfig tracked;
    tracked.trackPerBranch = true;
    for (std::size_t s = 0; s < kShapes.size(); ++s) {
        SCOPED_TRACE(BiModePredictor(kShapes[s]).name() + " solo kernel");
        BiModePredictor core(kShapes[s]);
        std::vector<SimResult> results;
        ASSERT_TRUE(replayKernelBankAny({&core}, packed, tracked, results));
        EXPECT_TRUE(sameRun(results[0], expected[s]));
        expectSameState(core, models[s]);
    }

    std::vector<SimConfig> configs = {tracked};
    configs.front().kernelTier = KernelTier::Scalar;
    for (const KernelTier tier : availableKernelTiers()) {
        SimConfig config;
        config.kernelTier = tier;
        configs.push_back(config);
    }
    for (const SimConfig &config : configs) {
        SCOPED_TRACE(std::string("bank on ") +
                     kernelTierName(config.kernelTier) +
                     (config.trackPerBranch ? " with rows" : ""));
        std::vector<BiModePredictor> cores(kShapes.begin(), kShapes.end());
        std::vector<BranchPredictor *> bank;
        for (BiModePredictor &core : cores)
            bank.push_back(&core);
        std::vector<SimResult> results;
        ASSERT_TRUE(replayKernelBankAny(bank, packed, config, results));
        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            SCOPED_TRACE(cores[s].name());
            EXPECT_EQ(results[s].kernelTier, config.kernelTier);
            EXPECT_EQ(results[s].fusedLanes, kShapes.size());
            EXPECT_TRUE(sameRun(results[s], expected[s]));
            expectSameState(cores[s], models[s]);
        }
    }
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
        BiModePredictor core(cfg);
        SimConfig tracked;
        tracked.trackPerBranch = true;
        std::vector<SimResult> results;
        ASSERT_TRUE(
            replayKernelBankAny({&core}, aliasedTrace(), tracked, results));
        EXPECT_FALSE(sameRun(results[0], wrong));
    }
}

} // namespace
} // namespace bpsim
