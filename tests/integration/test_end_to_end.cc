/**
 * @file End-to-end integration tests: workloads through predictors
 * through analysis, checking the paper's headline claims hold on the
 * synthetic suite, plus cross-module plumbing (file round trips).
 *
 * These use reduced dynamic counts so the whole suite stays fast;
 * the full-size numbers live in the bench/ binaries.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "analysis/bias_analysis.hh"
#include "core/bimode.hh"
#include "core/factory.hh"
#include "predictors/gshare.hh"
#include "sim/gshare_sweep.hh"
#include "sim/simulator.hh"
#include "trace/binary_io.hh"
#include "trace/packed_trace.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

/** A reduced-size benchmark trace for fast integration checks. */
MemoryTrace
reducedTrace(const std::string &name, std::uint64_t dynamic)
{
    auto spec = findBenchmark(name);
    EXPECT_TRUE(spec.has_value());
    spec->dynamicBranches = dynamic;
    return generateWorkloadTrace(*spec);
}

double
mispredictOn(const MemoryTrace &trace, const std::string &config)
{
    const PredictorPtr predictor = makePredictor(config);
    auto reader = trace.reader();
    return simulate(*predictor, reader).mispredictionRate();
}

/** @p trace with its packed form, the shape sweepGshare() replays. */
std::vector<BenchmarkTrace>
sweepInput(const MemoryTrace &trace)
{
    return {{"trace", &trace, std::make_shared<const PackedTrace>(trace)}};
}

TEST(EndToEnd, BiModeBeatsEqualCostGshareOnGcc)
{
    // The headline claim at the 1-2KB region: bi-mode at 1.5KB
    // (d=11) must beat gshare at 2KB (n=13) — more accuracy from
    // less hardware.
    const MemoryTrace trace = reducedTrace("gcc", 800'000);
    const double bimode = mispredictOn(trace, "bimode:d=11");
    const double gshare = mispredictOn(trace, "gshare:n=13");
    EXPECT_LT(bimode, gshare);
}

TEST(EndToEnd, BiModeBeatsSingleAndMultiPhtOnAverage)
{
    // Figure 2's ordering on a three-benchmark sample.
    double bimode_avg = 0, pht1_avg = 0, multi_avg = 0;
    for (const char *name : {"gcc", "vortex", "perl"}) {
        const MemoryTrace trace = reducedTrace(name, 600'000);
        bimode_avg += mispredictOn(trace, "bimode:d=11");
        pht1_avg += mispredictOn(trace, "gshare:n=12,h=12");
        multi_avg += mispredictOn(trace, "gshare:n=12,h=9");
    }
    EXPECT_LT(bimode_avg, pht1_avg);
    EXPECT_LT(bimode_avg, multi_avg);
}

TEST(EndToEnd, LongHistoryWinsOnCompress)
{
    // The paper's compress exception: among gshare configurations
    // the single-PHT (full-history) point is best at large sizes.
    const MemoryTrace trace = reducedTrace("compress", 1'000'000);
    const auto sweep = sweepGshare(14, sweepInput(trace), 6);
    EXPECT_GE(sweep.best().historyBits, 12u)
        << "compress must favour long history";
}

TEST(EndToEnd, ShortHistoryWinsOnGccAtSmallSizes)
{
    // gcc at 0.25KB: 16k branches over 1k counters — the sweep must
    // prefer a multi-PHT (short history) configuration.
    const MemoryTrace trace = reducedTrace("gcc", 800'000);
    const auto sweep = sweepGshare(10, sweepInput(trace));
    EXPECT_LT(sweep.best().historyBits, 10u);
}

TEST(EndToEnd, GoIsTheHardestBenchmark)
{
    const MemoryTrace go = reducedTrace("go", 600'000);
    const MemoryTrace vortex = reducedTrace("vortex", 600'000);
    const double go_rate = mispredictOn(go, "bimode:d=13");
    const double vortex_rate = mispredictOn(vortex, "bimode:d=13");
    EXPECT_GT(go_rate, 2.0 * vortex_rate);
}

TEST(EndToEnd, BiasProfileBiModeReducesNonDominant)
{
    // Figure 5 vs Figure 6: at matched sizes, bi-mode's direction
    // counters see a smaller non-dominant share than the
    // history-indexed gshare's counters, while keeping WB in check.
    const MemoryTrace trace = reducedTrace("gcc", 800'000);

    GsharePredictor gshare(8, 8);
    auto reader1 = trace.reader();
    BiasAnalysis gshare_analysis(gshare, reader1);
    gshare_analysis.run();
    const CounterProfile gshare_profile =
        gshare_analysis.counterProfile();

    BiModeConfig cfg;
    cfg.directionIndexBits = 7;
    cfg.choiceIndexBits = 7;
    cfg.historyBits = 7;
    BiModePredictor bimode(cfg);
    auto reader2 = trace.reader();
    BiasAnalysis bimode_analysis(bimode, reader2);
    bimode_analysis.run();
    const CounterProfile bimode_profile =
        bimode_analysis.counterProfile();

    EXPECT_LT(bimode_profile.trafficNonDominantShare,
              gshare_profile.trafficNonDominantShare);
}

TEST(EndToEnd, BiModeReducesClassTransitions)
{
    // Table 4: the bi-mode scheme shows fewer ST/SNT interminglings
    // than the history-indexed scheme.
    const MemoryTrace trace = reducedTrace("gcc", 500'000);

    GsharePredictor gshare(8, 8);
    auto reader1 = trace.reader();
    BiasAnalysis gshare_analysis(gshare, reader1);
    gshare_analysis.run();
    const TransitionCounts gshare_counts =
        gshare_analysis.countTransitions();

    BiModeConfig cfg;
    cfg.directionIndexBits = 7;
    cfg.choiceIndexBits = 7;
    cfg.historyBits = 7;
    BiModePredictor bimode(cfg);
    auto reader2 = trace.reader();
    BiasAnalysis bimode_analysis(bimode, reader2);
    bimode_analysis.run();
    const TransitionCounts bimode_counts =
        bimode_analysis.countTransitions();

    EXPECT_LT(bimode_counts.nonDominant, gshare_counts.nonDominant);
}

TEST(EndToEnd, TraceFileRoundTripPreservesSimResults)
{
    const std::string path = ::testing::TempDir() + "e2e_roundtrip.bbt";
    const MemoryTrace original = reducedTrace("perl", 200'000);
    {
        auto reader = original.reader();
        writeBinaryTrace(reader, path);
    }
    MemoryTrace loaded;
    readBinaryTrace(path, loaded);

    BiModePredictor a(BiModeConfig::canonical(10));
    BiModePredictor b(BiModeConfig::canonical(10));
    auto reader_a = original.reader();
    auto reader_b = loaded.reader();
    const SimResult result_a = simulate(a, reader_a);
    const SimResult result_b = simulate(b, reader_b);
    EXPECT_EQ(result_a.mispredictions, result_b.mispredictions);
    EXPECT_EQ(result_a.branches, result_b.branches);
    std::remove(path.c_str());
}

TEST(EndToEnd, AnalysisStreamsCoverEveryBranch)
{
    const MemoryTrace trace = reducedTrace("xlisp", 300'000);
    BiModePredictor predictor(BiModeConfig::canonical(9));
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    EXPECT_EQ(analysis.streams().totalObservations(), trace.size());
    // Traffic shares over the profile must partition all traffic.
    const CounterProfile profile = analysis.counterProfile();
    EXPECT_NEAR(profile.trafficWbShare + profile.trafficDominantShare +
                    profile.trafficNonDominantShare,
                1.0, 1e-9);
}

TEST(EndToEnd, PartialUpdateAblationMatters)
{
    // The paper calls the partial update "particularly effective
    // when the total hardware budget is small": full update must not
    // beat the paper policy on an aliasing-heavy benchmark at small
    // size.
    const MemoryTrace trace = reducedTrace("gcc", 800'000);
    const double partial = mispredictOn(trace, "bimode:d=9");
    const double full = mispredictOn(trace, "bimode:d=9,partial=0");
    EXPECT_LT(partial, full);
}

TEST(EndToEnd, EveryBenchmarkRunsThroughEveryPredictorKind)
{
    // Smoke coverage: all 14 workloads x all predictor kinds.
    const std::vector<std::string> configs = {
        "bimodal:n=10", "gshare:n=10", "bimode:d=9", "agree:n=10",
        "gskew:n=9",    "yags:c=10,n=8", "tournament:n=9",
        "gas:h=6,a=4",  "pas:h=6,l=8,a=2"};
    for (const auto &spec : allBenchmarks()) {
        WorkloadSpec reduced = spec;
        reduced.dynamicBranches = 60'000;
        const MemoryTrace trace = generateWorkloadTrace(reduced);
        for (const std::string &config : configs) {
            const PredictorPtr predictor = makePredictor(config);
            auto reader = trace.reader();
            const SimResult result = simulate(*predictor, reader);
            EXPECT_EQ(result.branches, trace.size())
                << spec.name << " / " << config;
            EXPECT_LT(result.mispredictionRate(), 60.0)
                << spec.name << " / " << config;
        }
    }
}

} // namespace
} // namespace bpsim
