/**
 * @file
 * The harness the oracle tests share: the two traces every statement
 * is diffed on, the statement's own run over a packed trace, and
 * diffAllPaths(), which replays a set of shapes on every path a
 * campaign can take and compares each lane with the statement.
 */

#ifndef BPSIM_TESTS_ORACLE_ORACLE_PATHS_HH
#define BPSIM_TESTS_ORACLE_ORACLE_PATHS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "predictors/counter.hh"
#include "sim/replay.hh"
#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim::oracle_paths
{

/** A seeded stream over 1024 pcs, about eight per counter of a
 *  128-entry table: a third random, a third 90% taken and a third
 *  copying the outcome three branches back, with 10% noise. */
inline const PackedTrace &
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

/** The first 100k records of gcc's trace, packed: the generator
 *  streams, so a 100k-record spec yields exactly those. */
inline const PackedTrace &
gccTrace()
{
    static const PackedTrace packed = [] {
        WorkloadSpec spec = *findBenchmark("gcc");
        spec.dynamicBranches = 100'000;
        return PackedTrace(generateWorkloadTrace(spec));
    }();
    return packed;
}

/** What the statement @p model says a run over @p packed yields. */
template <typename Model>
SimResult
runModel(Model &model, const PackedTrace &packed)
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

inline std::vector<int>
counters(const CounterTable &table)
{
    std::vector<int> values(table.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        values[i] = table.value(i);
    return values;
}

/** True when @p actual matches @p expected in counts and, when the
 *  run tracked them, per-branch rows. */
inline bool
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

/** True when @p core, run alone with per-branch rows, disagrees with
 *  the run @p wrong a known-wrong statement yields. */
template <typename Pred>
bool
differs(Pred core, const PackedTrace &packed, const SimResult &wrong)
{
    SimConfig tracked;
    tracked.trackPerBranch = true;
    std::vector<SimResult> results;
    EXPECT_TRUE(replayKernelBankAny({&core}, packed, tracked, results));
    return !results.empty() && !sameRun(results[0], wrong);
}

/**
 * Runs fresh copies of @p cores over @p packed on the solo kernel and
 * the scalar bank, both tracking per-branch rows, and as one bank on
 * each of @p tiers; diffs every lane's counts and rows against its
 * statement in @p models, and its final state with
 * @p expectSameState(core, model).
 */
template <typename Pred, typename Model, typename SameState>
void
diffAllPaths(const std::vector<Pred> &cores,
             const std::vector<Model> &models, const PackedTrace &packed,
             const std::vector<KernelTier> &tiers,
             SameState expectSameState)
{
    std::vector<Model> stepped = models;
    std::vector<SimResult> expected;
    for (Model &model : stepped) {
        expected.push_back(runModel(model, packed));
        ASSERT_GT(expected.back().mispredictions, 0u);
    }

    SimConfig tracked;
    tracked.trackPerBranch = true;
    for (std::size_t s = 0; s < cores.size(); ++s) {
        Pred core = cores[s];
        SCOPED_TRACE(core.name() + " solo kernel");
        std::vector<SimResult> results;
        ASSERT_TRUE(replayKernelBankAny({&core}, packed, tracked, results));
        EXPECT_TRUE(sameRun(results[0], expected[s]));
        expectSameState(core, stepped[s]);
    }

    std::vector<SimConfig> configs = {tracked};
    configs.front().kernelTier = KernelTier::Scalar;
    for (const KernelTier tier : tiers) {
        SimConfig config;
        config.kernelTier = tier;
        configs.push_back(config);
    }
    for (const SimConfig &config : configs) {
        SCOPED_TRACE(std::string("bank on ") +
                     kernelTierName(config.kernelTier) +
                     (config.trackPerBranch ? " with rows" : ""));
        std::vector<Pred> bankCores = cores;
        std::vector<BranchPredictor *> bank;
        for (Pred &core : bankCores)
            bank.push_back(&core);
        std::vector<SimResult> results;
        ASSERT_TRUE(replayKernelBankAny(bank, packed, config, results));
        for (std::size_t s = 0; s < cores.size(); ++s) {
            SCOPED_TRACE(bankCores[s].name());
            EXPECT_EQ(results[s].kernelTier, config.kernelTier);
            EXPECT_EQ(results[s].fusedLanes, cores.size());
            EXPECT_TRUE(sameRun(results[s], expected[s]));
            expectSameState(bankCores[s], stepped[s]);
        }
    }
}

} // namespace bpsim::oracle_paths

#endif // BPSIM_TESTS_ORACLE_ORACLE_PATHS_HH
