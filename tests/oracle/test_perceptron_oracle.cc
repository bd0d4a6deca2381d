/**
 * @file
 * Diffs the perceptron's fast core (predictors/perceptron.hh) against
 * the naive statement in naive_perceptron.hh, step by step and in
 * final state, over every weight width, history length and table
 * size whose edges the row step's vectors and padding could get
 * wrong.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "naive_perceptron.hh"
#include "predictors/perceptron.hh"
#include "sim/replay_kernel.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

struct Step
{
    std::uint64_t pc;
    bool taken;
};

/** A seeded stream over 4 * 2^n pcs, so about four branches share
 *  every perceptron: a third of them random, a third 90% taken and a
 *  third copying the outcome five branches back, with 10% noise. */
std::vector<Step>
aliasedStream(unsigned n, std::size_t length, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Step> stream;
    std::uint64_t history = 0;
    for (std::size_t i = 0; i < length; ++i) {
        const std::uint64_t slot = rng.nextBounded(std::uint64_t{4} << n);
        bool taken = false;
        switch (slot % 3) {
          case 0:
            taken = rng.nextBool(0.5);
            break;
          case 1:
            taken = rng.nextBool(0.9);
            break;
          default:
            taken = (((history >> 4) & 1) != 0) != rng.nextBool(0.1);
            break;
        }
        stream.push_back({0x400000 + 4 * slot, taken});
        history = (history << 1) | (taken ? 1 : 0);
    }
    return stream;
}

/** The first 100k records of gcc's trace, packed: the generator
 *  streams, so a 100k-record spec yields exactly those. */
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

PerceptronPredictor
makeCore(unsigned n, unsigned h, unsigned w)
{
    return PerceptronPredictor(PerceptronConfig{n, h, w});
}

/** Every row's weights, and its output under the final history, must
 *  match the oracle's. */
void
expectSameState(PerceptronPredictor &core, oracle::NaivePerceptron &model,
                unsigned n)
{
    for (std::size_t p = 0; p < (std::size_t{1} << n); ++p) {
        const std::uint64_t pc = 4 * p;
        const std::span<std::int16_t> row = core.weightRow(p);
        ASSERT_EQ(std::vector<int>(row.begin(), row.end()),
                  model.weights(pc))
            << "row " << p;
        ASSERT_EQ(core.outputFor(pc), model.output(pc)) << "row " << p;
    }
}

/** Steps both models through @p stream, asserting equal predictions
 *  at every step; returns the oracle's misprediction count. */
std::uint64_t
stepBoth(PerceptronPredictor &core, oracle::NaivePerceptron &model,
         const std::vector<Step> &stream)
{
    std::uint64_t mispredictions = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const bool expected = model.step(stream[i].pc, stream[i].taken);
        const bool actual = core.stepFast(stream[i].pc, stream[i].taken);
        EXPECT_EQ(actual, expected) << "step " << i;
        if (actual != expected)
            break;
        mispredictions += expected != stream[i].taken ? 1 : 0;
    }
    return mispredictions;
}

using Shape = std::tuple<unsigned, unsigned, unsigned>; // n, h, w

class PerceptronOracle : public ::testing::TestWithParam<Shape>
{
};

TEST_P(PerceptronOracle, AliasedRandomStream)
{
    const auto [n, h, w] = GetParam();
    PerceptronPredictor core = makeCore(n, h, w);
    oracle::NaivePerceptron model(n, h, w);
    const std::vector<Step> stream = aliasedStream(n, 20'000, 7 * h + w);
    const std::uint64_t mispredictions = stepBoth(core, model, stream);
    EXPECT_GT(mispredictions, 0u);
    expectSameState(core, model, n);
}

TEST_P(PerceptronOracle, GccTraceOnTheKernel)
{
    // The campaign path: the replay kernel over a packed trace.
    const auto [n, h, w] = GetParam();
    PerceptronPredictor core = makeCore(n, h, w);
    oracle::NaivePerceptron model(n, h, w);
    const PackedTrace &packed = gccTrace();
    std::uint64_t mispredictions = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) {
        mispredictions +=
            model.step(packed.pc(i), packed.taken(i)) != packed.taken(i);
    }
    EXPECT_EQ(replayKernel(core, packed).mispredictions, mispredictions);
    expectSameState(core, model, n);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsHistoriesTables, PerceptronOracle,
    ::testing::Combine(::testing::Values(1u, 5u, 9u),
                       ::testing::Values(1u, 7u, 8u, 21u, 31u, 32u, 63u),
                       ::testing::Values(2u, 3u, 8u, 15u, 16u)),
    [](const ::testing::TestParamInfo<Shape> &info) {
        std::ostringstream name;
        name << "n" << std::get<0>(info.param) << "_h"
             << std::get<1>(info.param) << "_w" << std::get<2>(info.param);
        return name.str();
    });

TEST(PerceptronOracleSaturation, SixteenBitWeightsClampAtTheInt16Range)
{
    // Training alone keeps weights within a few multiples of theta
    // (the perceptron cycling theorem bounds them for a finite input
    // set), so both models start from preset rows. In each, the bias
    // weight and weight 1 sit two steps inside the int16 range and
    // cancel once the history is uniform, so |y| <= theta and every
    // step trains: an always-taken branch drives row 0's bias weight
    // into 2^15 - 1, an always-not-taken one drives row 1's into
    // -2^15, and training continues there, where a plain int16 add
    // would wrap.
    for (const unsigned h : {21u, 63u}) {
        SCOPED_TRACE(h);
        constexpr unsigned n = 3;
        PerceptronPredictor core = makeCore(n, h, 16);
        oracle::NaivePerceptron model(n, h, 16);
        const auto preset = [&](std::size_t p, int bias, int first) {
            core.weightRow(p)[0] = static_cast<std::int16_t>(bias);
            core.weightRow(p)[1] = static_cast<std::int16_t>(first);
            model.weights(4 * p)[0] = bias;
            model.weights(4 * p)[1] = first;
        };
        preset(0, 32766, -32766);
        preset(1, -32766, -32766);
        std::vector<Step> stream(2 * 200);
        for (std::size_t i = 0; i < stream.size(); ++i)
            stream[i] = i < 200 ? Step{0, true} : Step{4, false};
        stepBoth(core, model, stream);
        expectSameState(core, model, n);
        EXPECT_EQ(model.weights(0)[0], 32767);
        EXPECT_EQ(model.weights(4)[0], -32768);
    }
}

} // namespace
} // namespace bpsim
