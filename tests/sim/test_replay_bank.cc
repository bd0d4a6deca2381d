/** @file Bit-identity tests for the banked multi-config replay path.
 *
 * The contract (sim/replay_kernel.hh, replayKernelBank()): stepping N
 * predictor instances through one trace pass must produce, for every
 * lane, exactly the counts of a solo replayKernel() run AND leave the
 * instance in the identical state — fusion may only change wall time.
 * Each equivalence test runs two banked passes without resetting, so
 * a state divergence in pass one surfaces as a count mismatch in pass
 * two. The campaign-level tests check the emitter form of the same
 * contract: fused and unfused runs serialize byte-identically.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
#include "core/factory.hh"
#include "sim/replay.hh"
#include "sim/simd/kernel_tier.hh"
#include "sim/trace_cache.hh"
#include "trace/packed_trace.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
bankSpec(const std::string &name, std::uint32_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 200;
    spec.dynamicBranches = 30'000;
    spec.seed = seed;
    return spec;
}

const MemoryTrace &
sharedTrace()
{
    static const MemoryTrace trace =
        generateWorkloadTrace(bankSpec("bank-test", 29));
    return trace;
}

const PackedTrace &
sharedPacked()
{
    static const PackedTrace packed(sharedTrace());
    return packed;
}

/**
 * A mixed-size bank per fast-replay kind: lanes deliberately differ
 * in table size (and secondary knobs) so per-lane state separation
 * is actually exercised — a bank bug that leaks state between lanes
 * cannot cancel out across identical configs.
 * BankCoverage.CoversEveryFastReplayKind fails if a kind ever gains
 * a bank kernel without extending this table.
 */
const std::map<std::string, std::vector<std::string>> kBankSpecs = {
    {"bimodal", {"bimodal:n=6", "bimodal:n=8", "bimodal:n=10"}},
    {"gag", {"gag:h=6", "gag:h=8", "gag:h=10"}},
    {"gas", {"gas:h=5,a=2", "gas:h=6,a=3", "gas:h=8,a=2"}},
    {"pag", {"pag:h=5,l=5", "pag:h=6,l=6", "pag:h=8,l=4"}},
    {"pas", {"pas:h=4,l=5,a=2", "pas:h=5,l=6,a=3"}},
    {"gshare", {"gshare:n=6,h=3", "gshare:n=8,h=8", "gshare:n=10,h=5"}},
    // The ablation configs ride in the same bank as canonical lanes,
    // so the per-lane policy masks (bothBanksMask, alwaysChoiceMask)
    // of the vectorized choice kernel are exercised mixed, the way
    // the ablation_bimode campaign fuses them.
    {"bimode", {"bimode:d=6", "bimode:d=7,c=6,h=5", "bimode:d=8",
                "bimode:d=7,partial=0", "bimode:d=7,alwayschoice=1",
                "bimode:d=6,partial=0,alwayschoice=1"}},
    {"agree", {"agree:n=6,h=4,b=6", "agree:n=8,h=8,b=8",
               "agree:n=7,h=3,b=9"}},
    // The full-update ablation lane rides the same bank as canonical
    // partial-update lanes, so the scalar bank steps mixed update
    // policies side by side.
    {"gskew", {"gskew:n=6,h=5", "gskew:n=7,h=7", "gskew:n=8,h=4",
               "gskew:n=7,h=6,partial=0"}},
    // t=2 leaves 4 distinct tags over a small cache, forcing constant
    // tag conflicts so the miss/alloc path of the tagged probe is
    // hammered rather than grazed.
    {"yags", {"yags:c=7,n=5,t=5,h=5", "yags:c=8,n=6,t=6,h=6",
              "yags:c=6,n=5,t=2,h=4"}},
    {"tournament", {"tournament:n=6", "tournament:n=7",
                    "tournament:n=8"}},
    {"filter", {"filter:n=6,h=4,b=6,k=2", "filter:n=8,h=8,b=8,k=3",
                "filter:n=10,h=5,b=7,k=6"}},
    // Rows of one, two and three 16-input pairs (h + 1 = 8, 13, 22,
    // 34) and a 16-bit weight lane.
    {"perceptron", {"perceptron:n=4,h=7", "perceptron:n=5,h=12",
                    "perceptron:n=6,h=33,w=4", "perceptron:n=3,h=21,w=16"}},
};

TEST(BankCoverage, CoversEveryFastReplayKind)
{
    for (const std::string &kind : knownPredictorKinds()) {
        EXPECT_TRUE(kBankSpecs.count(kind) == 1)
            << "no bank-equivalence specs for fast-replay kind '"
            << kind << "' — extend kBankSpecs";
    }
}

TEST(BankCoverage, FastReplayKindIntrospection)
{
    EXPECT_EQ(fastReplayKind("gshare:n=8,h=4"), "gshare");
    EXPECT_EQ(fastReplayKind("bimode:d=7"), "bimode");
    EXPECT_EQ(fastReplayKind("perceptron:n=5,h=12"), "perceptron");
    // Unparseable.
    EXPECT_EQ(fastReplayKind("gshare:n=notanumber"), "");
    EXPECT_EQ(fastReplayKind("no-such-kind"), "");
    EXPECT_EQ(fastReplayKind(""), "");
}

class BankEquivalence
    : public ::testing::TestWithParam<
          std::pair<const std::string, std::vector<std::string>>>
{
};

TEST_P(BankEquivalence, CountsAndStateMatchSoloKernel)
{
    const std::vector<std::string> &configs = GetParam().second;

    std::vector<PredictorPtr> banked;
    std::vector<PredictorPtr> solo;
    std::vector<BranchPredictor *> bank;
    for (const std::string &config : configs) {
        banked.push_back(makePredictor(config));
        solo.push_back(makePredictor(config));
        bank.push_back(banked.back().get());
    }

    SimConfig sim_config;
    sim_config.warmupBranches = 500;

    // Two passes, no reset: pass 2 only matches if the bank pass
    // moved every lane's state back bit-identically.
    for (int pass = 1; pass <= 2; ++pass) {
        std::vector<SimResult> fused;
        ASSERT_TRUE(
            replayKernelBankAny(bank, sharedPacked(), sim_config, fused));
        ASSERT_EQ(fused.size(), configs.size());

        for (std::size_t l = 0; l < configs.size(); ++l) {
            auto reader = sharedTrace().reader();
            const SimResult expected = simulateAny(
                *solo[l], reader, &sharedPacked(), sim_config);
            EXPECT_EQ(fused[l].branches, expected.branches)
                << configs[l] << " pass " << pass;
            EXPECT_EQ(fused[l].mispredictions, expected.mispredictions)
                << configs[l] << " pass " << pass;
            EXPECT_EQ(fused[l].takenBranches, expected.takenBranches)
                << configs[l] << " pass " << pass;
            EXPECT_EQ(fused[l].predictorName, expected.predictorName)
                << configs[l];
            EXPECT_EQ(fused[l].storageBits, expected.storageBits)
                << configs[l];
        }
    }
}

TEST_P(BankEquivalence, FusedTimingAttribution)
{
    const std::vector<std::string> &configs = GetParam().second;

    std::vector<PredictorPtr> owned;
    std::vector<BranchPredictor *> bank;
    for (const std::string &config : configs) {
        owned.push_back(makePredictor(config));
        bank.push_back(owned.back().get());
    }

    std::vector<SimResult> fused;
    ASSERT_TRUE(replayKernelBankAny(bank, sharedPacked(), {}, fused));
    for (const SimResult &result : fused) {
        // Every lane shared one pass of `lanes` width and reports an
        // equal share of its wall time.
        EXPECT_EQ(result.fusedLanes, configs.size());
        EXPECT_EQ(result.wallNanos, fused.front().wallNanos);
    }
}

/**
 * simulateAny() is a one-lane replayKernelBankAny(): for the first
 * config of each kind, both produce the same counts and per-branch
 * rows, leave the predictor in the same state (two passes, no
 * reset), and report a run timed alone.
 */
TEST_P(BankEquivalence, SimulateAnyIsAOneLaneBank)
{
    const std::string &config = GetParam().second.front();
    PredictorPtr viaBank = makePredictor(config);
    PredictorPtr viaSolo = makePredictor(config);
    const std::vector<BranchPredictor *> bank = {viaBank.get()};

    SimConfig sim_config;
    sim_config.warmupBranches = 500;
    sim_config.trackPerBranch = true;
    for (int pass = 1; pass <= 2; ++pass) {
        const std::string where = config + " pass " + std::to_string(pass);
        std::vector<SimResult> banked;
        ASSERT_TRUE(
            replayKernelBankAny(bank, sharedPacked(), sim_config, banked));
        ASSERT_EQ(banked.size(), 1u);
        auto reader = sharedTrace().reader();
        const SimResult solo =
            simulateAny(*viaSolo, reader, &sharedPacked(), sim_config);

        EXPECT_EQ(banked[0].branches, solo.branches) << where;
        EXPECT_EQ(banked[0].mispredictions, solo.mispredictions) << where;
        EXPECT_EQ(banked[0].takenBranches, solo.takenBranches) << where;
        EXPECT_EQ(banked[0].fusedLanes, 0u) << where;
        EXPECT_EQ(solo.fusedLanes, 0u) << where;
        ASSERT_FALSE(solo.perBranch.empty()) << where;
        ASSERT_EQ(banked[0].perBranch.size(), solo.perBranch.size())
            << where;
        for (std::size_t i = 0; i < solo.perBranch.size(); ++i) {
            const PerBranchResult &got = banked[0].perBranch[i];
            const PerBranchResult &want = solo.perBranch[i];
            EXPECT_EQ(got.pc, want.pc) << where << " row " << i;
            EXPECT_EQ(got.executions, want.executions)
                << where << " row " << i;
            EXPECT_EQ(got.mispredictions, want.mispredictions)
                << where << " row " << i;
            EXPECT_EQ(got.takenCount, want.takenCount)
                << where << " row " << i;
        }
    }
}

std::string
bankTestName(
    const ::testing::TestParamInfo<
        std::pair<const std::string, std::vector<std::string>>> &info)
{
    return info.param.first;
}

INSTANTIATE_TEST_SUITE_P(AllFastKinds, BankEquivalence,
                         ::testing::ValuesIn(kBankSpecs.begin(),
                                             kBankSpecs.end()),
                         bankTestName);

/** Kinds with a vectorized bank flattening (buildSimdBank overloads)
 *  — the only ones where a forced SIMD tier actually changes the
 *  executed code path and must be attributed in SimResult. */
bool
kindHasSimdBank(const std::string &kind)
{
    return kind == "gshare" || kind == "bimode";
}

/**
 * Two no-reset banked passes at a forced kernel tier — the
 * comparison unit of the tier matrix. Pass 2 only reproduces the
 * oracle if pass 1 left every lane's counters and histories
 * bit-identical, so final-state divergence surfaces as a pass-2
 * count mismatch without needing a state walker per kind.
 */
std::array<std::vector<SimResult>, 2>
runTierPasses(const std::string &kind,
              const std::vector<std::string> &configs,
              std::size_t lanes, KernelTier tier)
{
    std::vector<PredictorPtr> owned;
    std::vector<BranchPredictor *> bank;
    for (std::size_t l = 0; l < lanes; ++l) {
        owned.push_back(makePredictor(configs[l % configs.size()]));
        bank.push_back(owned.back().get());
    }

    SimConfig config;
    // 500 splits a 64-bit taken-bitmap word: the warmup/measured
    // boundary lands mid-word in both the scalar and vector loops.
    config.warmupBranches = 500;
    config.kernelTier = tier;

    std::array<std::vector<SimResult>, 2> passes;
    for (auto &results : passes) {
        EXPECT_TRUE(
            replayKernelBankAny(bank, sharedPacked(), config, results))
            << kind << " lanes=" << lanes << " tier="
            << kernelTierName(tier);
    }
    return passes;
}

class TierMatrix
    : public ::testing::TestWithParam<
          std::pair<const std::string, std::vector<std::string>>>
{
};

/**
 * The tier matrix: every tier this binary can run here × every
 * fast-replay kind × lane counts around the vector widths (1 solo,
 * 2 = the width served campaigns fuse most, 7/9 straddling the
 * 8-wide groups, 8 exact, 32 = the campaign maximum spanning two
 * 16-wide groups) must match the forced-scalar oracle in every
 * count, on both of the no-reset passes.
 */
TEST_P(TierMatrix, MatchesScalarOracleAtEveryLaneCount)
{
    const std::string &kind = GetParam().first;
    const std::vector<std::string> &configs = GetParam().second;

    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{32}}) {
        const auto oracle =
            runTierPasses(kind, configs, lanes, KernelTier::Scalar);

        for (const KernelTier tier : availableKernelTiers()) {
            if (tier == KernelTier::Scalar)
                continue;
            const auto vec = runTierPasses(kind, configs, lanes, tier);

            for (int pass = 0; pass < 2; ++pass) {
                ASSERT_EQ(vec[pass].size(), lanes);
                for (std::size_t l = 0; l < lanes; ++l) {
                    const std::string where =
                        kind + " tier=" + kernelTierName(tier) +
                        " lanes=" + std::to_string(lanes) +
                        " lane=" + std::to_string(l) + " pass=" +
                        std::to_string(pass + 1);
                    EXPECT_EQ(vec[pass][l].mispredictions,
                              oracle[pass][l].mispredictions)
                        << where;
                    EXPECT_EQ(vec[pass][l].branches,
                              oracle[pass][l].branches)
                        << where;
                    EXPECT_EQ(vec[pass][l].takenBranches,
                              oracle[pass][l].takenBranches)
                        << where;
                    // A multi-lane bank of a SIMD-capable kind must
                    // actually have run (and report) the forced
                    // tier; other kinds ride the scalar fallback.
                    if (kindHasSimdBank(kind) && lanes > 1) {
                        EXPECT_EQ(vec[pass][l].kernelTier, tier)
                            << where;
                    } else {
                        EXPECT_EQ(vec[pass][l].kernelTier,
                                  KernelTier::Scalar)
                            << where;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllFastKinds, TierMatrix,
                         ::testing::ValuesIn(kBankSpecs.begin(),
                                             kBankSpecs.end()),
                         bankTestName);

TEST(BankKernel, SingleLaneIsTimedAlone)
{
    PredictorPtr predictor = makePredictor("gshare:n=8");
    std::vector<BranchPredictor *> bank = {predictor.get()};
    std::vector<SimResult> results;
    ASSERT_TRUE(replayKernelBankAny(bank, sharedPacked(), {}, results));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].fusedLanes, 0u);
    EXPECT_GT(results[0].wallNanos, 0u);
}

TEST(BankKernel, RefusesUnknownKindUntouched)
{
    // A user subclass of the interface, of no registered type.
    struct Unregistered : BranchPredictor
    {
        bool step(std::uint64_t, bool) override { return true; }
        void reset() override {}
        std::string name() const override { return "unregistered"; }
        std::uint64_t storageBits() const override { return 0; }
    };
    Unregistered predictor;
    std::vector<BranchPredictor *> bank = {&predictor};
    std::vector<SimResult> results;
    EXPECT_FALSE(replayKernelBankAny(bank, sharedPacked(), {}, results));
    EXPECT_TRUE(results.empty());
    EXPECT_FALSE(replayKernelBankAny({}, sharedPacked(), {}, results));
}

TEST(BankKernel, RefusesMixedGroupWithoutDisturbingState)
{
    PredictorPtr gshare_a = makePredictor("gshare:n=8,h=8");
    PredictorPtr gshare_b = makePredictor("gshare:n=8,h=8");
    PredictorPtr bimode = makePredictor("bimode:d=7");
    std::vector<BranchPredictor *> bank = {gshare_a.get(),
                                           bimode.get()};
    std::vector<SimResult> results;
    EXPECT_FALSE(replayKernelBankAny(bank, sharedPacked(), {}, results));

    // The refused instance must still behave like an untouched one.
    auto reader_a = sharedTrace().reader();
    const SimResult after =
        simulateAny(*gshare_a, reader_a, &sharedPacked());
    auto reader_b = sharedTrace().reader();
    const SimResult fresh =
        simulateAny(*gshare_b, reader_b, &sharedPacked());
    EXPECT_EQ(after.mispredictions, fresh.mispredictions);
}

/** Fused and unfused campaign runs over the same grid, at the given
 *  worker counts, must serialize byte-identically. */
void
expectFusedMatchesUnfused(const std::vector<std::string> &configs,
                          const std::vector<BenchmarkTrace> &benchmarks,
                          unsigned fused_workers,
                          unsigned unfused_workers)
{
    Campaign fused;
    fused.addGrid(configs, benchmarks);
    ASSERT_TRUE(fused.fusionEnabled());

    Campaign unfused;
    unfused.addGrid(configs, benchmarks);
    unfused.setFusion(false);
    ASSERT_FALSE(unfused.fusionEnabled());

    const auto fused_results = fused.run(fused_workers);
    const auto unfused_results = unfused.run(unfused_workers);
    ASSERT_EQ(fused_results.size(), unfused_results.size());

    // Default serialization excludes timing, so the runs must be
    // byte-identical — including error rows and non-fast kinds.
    std::ostringstream fused_json, unfused_json;
    writeResultsJson(fused_json, fused_results);
    writeResultsJson(unfused_json, unfused_results);
    EXPECT_EQ(fused_json.str(), unfused_json.str());

    for (const JobResult &result : unfused_results) {
        if (result.ok()) {
            EXPECT_EQ(result.result.fusedLanes, 0u);
        }
    }
}

TEST(BankCampaign, FusedMatchesUnfusedByteForByte)
{
    TraceCache cache;
    const std::vector<BenchmarkTrace> benchmarks = resolveTraces(
        cache, {bankSpec("bank-a", 3), bankSpec("bank-b", 4)});

    // A grid that exercises every scheduling path at once: a fusable
    // ladder, further fusable kinds (including the registry-promoted
    // filter and gag), a kind alone in its bank, and a config error.
    const std::vector<std::string> configs = {
        "gshare:n=6,h=3",  "gshare:n=8,h=4", "gshare:n=10,h=5",
        "bimode:d=7",      "tournament:n=7",
        "filter:n=8,h=8,b=8,k=3", "filter:n=6,h=4,b=6,k=2",
        "gag:h=8",         "gag:h=10",
        "gshare:n=oops",
    };
    expectFusedMatchesUnfused(configs, benchmarks, 0, 1);
}

TEST(BankCampaign, MixedWarmupsDoNotCrossFuse)
{
    TraceCache cache;
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {bankSpec("bank-warm", 5)});

    Campaign fused;
    SimConfig warm;
    warm.warmupBranches = 1000;
    fused.addJob("gshare:n=8,h=4", benchmarks[0]);
    fused.addJob("gshare:n=8,h=4", benchmarks[0], warm);
    fused.addJob("gshare:n=8,h=8", benchmarks[0], warm);

    Campaign unfused;
    unfused.addJob("gshare:n=8,h=4", benchmarks[0]);
    unfused.addJob("gshare:n=8,h=4", benchmarks[0], warm);
    unfused.addJob("gshare:n=8,h=8", benchmarks[0], warm);
    unfused.setFusion(false);

    const auto fused_results = fused.run(1);
    const auto unfused_results = unfused.run(1);
    ASSERT_EQ(fused_results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(fused_results[i].ok());
        EXPECT_EQ(fused_results[i].result.mispredictions,
                  unfused_results[i].result.mispredictions);
        EXPECT_EQ(fused_results[i].result.branches,
                  unfused_results[i].result.branches);
    }
    // Different warm-up lengths may not share a bank.
    EXPECT_EQ(fused_results[0].result.fusedLanes, 0u);
    EXPECT_EQ(fused_results[1].result.fusedLanes, 2u);
    EXPECT_EQ(fused_results[2].result.fusedLanes, 2u);
}

TEST(BankCampaign, WideLadderSplitsAcrossBanksIdentically)
{
    TraceCache cache;
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {bankSpec("bank-wide", 6)});

    // 40 same-kind jobs exceed kMaxBankLanes (32), forcing a split
    // into multiple banks on one trace.
    std::vector<std::string> configs;
    for (unsigned h = 0; h <= 39; ++h)
        configs.push_back("gshare:n=12,h=" + std::to_string(h % 13));
    expectFusedMatchesUnfused(configs, benchmarks, 0, 1);
}

TEST(BankCampaign, PerBranchTrackingFusesAndMatchesVirtualLoop)
{
    TraceCache cache;
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {bankSpec("bank-track", 7)});

    SimConfig tracking;
    tracking.trackPerBranch = true;
    Campaign campaign;
    campaign.addJob("gshare:n=8,h=4", benchmarks[0], tracking);
    campaign.addJob("gshare:n=8,h=8", benchmarks[0], tracking);
    const auto results = campaign.run(1);
    ASSERT_EQ(results.size(), 2u);
    for (const JobResult &result : results) {
        ASSERT_TRUE(result.ok());
        // Probed banks fuse like unprobed ones (the tracking flag
        // only partitions the fusion key, it no longer pins jobs to
        // the per-job path).
        EXPECT_EQ(result.result.fusedLanes, 2u);
        ASSERT_FALSE(result.result.perBranch.empty());

        // The fused per-branch table must be row-for-row identical
        // to the virtual loop's.
        PredictorPtr oracle = makePredictor(result.configText);
        auto reader = benchmarks[0].trace->reader();
        const SimResult expected = simulate(*oracle, reader, tracking);
        ASSERT_EQ(result.result.perBranch.size(),
                  expected.perBranch.size());
        for (std::size_t i = 0; i < expected.perBranch.size(); ++i) {
            const PerBranchResult &got = result.result.perBranch[i];
            const PerBranchResult &want = expected.perBranch[i];
            EXPECT_EQ(got.pc, want.pc) << result.configText << " row "
                                       << i;
            EXPECT_EQ(got.executions, want.executions)
                << result.configText << " row " << i;
            EXPECT_EQ(got.mispredictions, want.mispredictions)
                << result.configText << " row " << i;
            EXPECT_EQ(got.takenCount, want.takenCount)
                << result.configText << " row " << i;
        }
    }
}

TEST(BankCampaign, TrackedAndUntrackedJobsDoNotCrossFuse)
{
    TraceCache cache;
    const std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {bankSpec("bank-track-mix", 8)});

    SimConfig tracking;
    tracking.trackPerBranch = true;
    Campaign campaign;
    campaign.addJob("gshare:n=8,h=4", benchmarks[0]);
    campaign.addJob("gshare:n=8,h=4", benchmarks[0], tracking);
    campaign.addJob("gshare:n=8,h=8", benchmarks[0], tracking);
    campaign.addJob("gshare:n=8,h=8", benchmarks[0]);
    const auto results = campaign.run(1);
    ASSERT_EQ(results.size(), 4u);
    for (const JobResult &result : results)
        ASSERT_TRUE(result.ok());
    // The two untracked jobs bank together, as do the two tracked
    // ones — but never across the tracking boundary, so untracked
    // lanes keep the unprobed kernel instantiation.
    EXPECT_EQ(results[0].result.fusedLanes, 2u);
    EXPECT_EQ(results[3].result.fusedLanes, 2u);
    EXPECT_TRUE(results[0].result.perBranch.empty());
    EXPECT_TRUE(results[3].result.perBranch.empty());
    EXPECT_EQ(results[1].result.fusedLanes, 2u);
    EXPECT_EQ(results[2].result.fusedLanes, 2u);
    EXPECT_FALSE(results[1].result.perBranch.empty());
    EXPECT_FALSE(results[2].result.perBranch.empty());
}

} // namespace
} // namespace bpsim
