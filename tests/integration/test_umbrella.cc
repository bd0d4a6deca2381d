/** @file Compiles the umbrella header and exercises one call through
 *  each subsystem it exposes. */

#include <gtest/gtest.h>

#include "bpsim.hh"

namespace bpsim
{
namespace
{

TEST(Umbrella, EverySubsystemReachable)
{
    // Workload.
    WorkloadSpec spec;
    spec.name = "umbrella";
    spec.staticBranches = 50;
    spec.dynamicBranches = 5000;
    spec.seed = 5;
    const MemoryTrace trace = generateWorkloadTrace(spec);
    EXPECT_EQ(trace.size(), 5000u);

    // Predictor via the factory, simulation, analysis.
    const PredictorPtr predictor = makePredictor("bimode:d=6");
    auto reader = trace.reader();
    const SimResult result = simulate(*predictor, reader);
    EXPECT_EQ(result.branches, 5000u);

    auto reader2 = trace.reader();
    BiModePredictor analysis_target(BiModeConfig::canonical(6));
    BiasAnalysis analysis(analysis_target, reader2);
    analysis.run();
    EXPECT_GT(analysis.counterProfile().activeCounters, 0u);
}

} // namespace
} // namespace bpsim
