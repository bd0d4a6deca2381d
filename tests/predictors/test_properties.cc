/**
 * @file
 * Cross-predictor property tests: invariants every predictor in the
 * library must satisfy, swept over factory configurations with
 * TEST_P. These catch interface-contract violations that
 * per-predictor tests miss.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/factory.hh"
#include "core/registry.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

/** A deterministic pseudo-workload of (pc, outcome) pairs. */
std::vector<std::pair<std::uint64_t, bool>>
syntheticStream(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, bool>> stream;
    stream.reserve(n);
    std::uint64_t pc = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        // A small hot set of addresses with mixed behaviours.
        pc = 0x400000 + 4 * rng.nextBounded(600);
        const bool outcome =
            (pc % 3 == 0) ? rng.nextBool(0.9)
                          : (pc % 3 == 1) ? rng.nextBool(0.15)
                                          : (i % 2 == 0);
        stream.emplace_back(pc, outcome);
    }
    return stream;
}

/** Counter hook counting its calls and keeping the last id. */
struct CountingHook
{
    std::uint64_t id = 0;
    int calls = 0;

    void
    counter(std::uint64_t served)
    {
        id = served;
        ++calls;
    }
};

class PredictorPropertyTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    PredictorPtr
    make() const
    {
        return makePredictor(GetParam());
    }
};

TEST_P(PredictorPropertyTest, PredictIsConstAndStable)
{
    const PredictorPtr predictor = make();
    for (std::uint64_t pc : {0x1000ULL, 0x2348ULL, 0x9abcULL}) {
        const bool first = predictor->predict(pc);
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(predictor->predict(pc), first);
    }
}

TEST_P(PredictorPropertyTest, ResetReproducesFreshBehavior)
{
    const PredictorPtr trained = make();
    const PredictorPtr fresh = make();
    const auto stream = syntheticStream(2000, 99);

    // Train, then reset.
    for (const auto &[pc, outcome] : stream)
        trained->update(pc, outcome);
    trained->reset();

    // From reset, behaviour must be bit-identical to a fresh build.
    for (const auto &[pc, outcome] : stream) {
        ASSERT_EQ(trained->predict(pc), fresh->predict(pc))
            << GetParam() << " diverged after reset at pc 0x"
            << std::hex << pc;
        trained->update(pc, outcome);
        fresh->update(pc, outcome);
    }
}

TEST_P(PredictorPropertyTest, DeterministicAcrossInstances)
{
    const PredictorPtr a = make();
    const PredictorPtr b = make();
    for (const auto &[pc, outcome] : syntheticStream(2000, 7)) {
        ASSERT_EQ(a->predict(pc), b->predict(pc)) << GetParam();
        a->update(pc, outcome);
        b->update(pc, outcome);
    }
}

TEST_P(PredictorPropertyTest, CounterIdsStayInRange)
{
    // Every fast core reports exactly one serving counter per step,
    // in range.
    const PredictorPtr predictor = make();
    const std::uint64_t counters = predictor->directionCounters();
    const bool fast = visitFastPredictor(*predictor, [&](auto &core) {
        ASSERT_GT(counters, 0u) << GetParam();
        for (const auto &[pc, outcome] : syntheticStream(3000, 13)) {
            CountingHook hook;
            core.stepFast(pc, outcome, hook);
            ASSERT_EQ(hook.calls, 1) << GetParam();
            ASSERT_LT(hook.id, counters) << GetParam();
        }
    });
    EXPECT_TRUE(fast) << GetParam();
}

TEST_P(PredictorPropertyTest, CounterBitsNotAboveStorageBits)
{
    const PredictorPtr predictor = make();
    EXPECT_LE(predictor->counterBits(), predictor->storageBits())
        << GetParam();
}

TEST_P(PredictorPropertyTest, NameIsStable)
{
    EXPECT_EQ(make()->name(), make()->name());
    EXPECT_FALSE(make()->name().empty());
}

TEST_P(PredictorPropertyTest, LearnsAnUltraBiasedBranch)
{
    // After heavy one-sided training, every predictor must follow
    // the bias.
    const PredictorPtr predictor = make();
    for (int i = 0; i < 200; ++i)
        predictor->update(0x4440, true);
    EXPECT_TRUE(predictor->predict(0x4440)) << GetParam();
    for (int i = 0; i < 200; ++i)
        predictor->update(0x8880, false);
    EXPECT_FALSE(predictor->predict(0x8880)) << GetParam();
}

/** The swept configurations; PropertyCoverage below fails if a kind
 *  is registered without one. */
const std::vector<const char *> kPropertySpecs = {
    "bimodal:n=10", "bimodal:n=6,w=3", "gag:h=8", "gas:h=6,a=3",
    "pag:h=6,l=7", "pas:h=5,l=7,a=3", "gshare:n=10,h=10",
    "gshare:n=10,h=4", "gshare:n=10,h=0", "bimode:d=9",
    "bimode:d=9,c=7", "bimode:d=9,h=5", "bimode:d=9,partial=0",
    "bimode:d=9,alwayschoice=1", "agree:n=10", "agree:n=10,b=7",
    "gskew:n=8", "gskew:n=8,partial=0", "yags:c=10,n=8,t=7",
    "filter:n=10", "filter:n=10,k=3,b=7", "tournament:n=8",
    "perceptron:n=5,h=12", "perceptron:n=4,h=40,w=6",
};

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorPropertyTest,
                         ::testing::ValuesIn(kPropertySpecs));

TEST(PropertyCoverage, CoversEveryFactoryKind)
{
    for (const std::string &kind : knownPredictorKinds()) {
        bool covered = false;
        for (const char *spec : kPropertySpecs)
            covered = covered || PredictorSpec::parse(spec).kind == kind;
        EXPECT_TRUE(covered) << "no property spec for factory kind '"
                             << kind << "' — extend kPropertySpecs";
    }
}

} // namespace
} // namespace bpsim
