/**
 * @file
 * Seeded fuzz tests: random-but-valid predictor configurations
 * driven by random branch streams, checking the interface contract
 * (no crashes, counter-hook invariants, simulate() equivalence) holds far
 * from the hand-picked configurations the unit tests use; and mutated
 * spec strings, checking that the non-fatal factory ends every input
 * in a predictor or an error, never in an exit or an abort.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/factory.hh"
#include "core/registry.hh"
#include "sim/simulator.hh"
#include "trace/memory_trace.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

/** Draws a random valid configuration string. */
std::string
randomConfig(Rng &rng)
{
    std::ostringstream os;
    switch (rng.nextBounded(10)) {
      case 0:
        os << "bimodal:n=" << rng.nextRange(2, 14);
        break;
      case 1: {
        const auto n = rng.nextRange(2, 14);
        os << "gshare:n=" << n << ",h=" << rng.nextRange(0, n);
        break;
      }
      case 2: {
        const auto d = rng.nextRange(2, 13);
        os << "bimode:d=" << d << ",c=" << rng.nextRange(2, 14)
           << ",h=" << rng.nextRange(0, d)
           << ",partial=" << rng.nextBounded(2)
           << ",alwayschoice=" << rng.nextBounded(2);
        break;
      }
      case 3: {
        const auto n = rng.nextRange(2, 13);
        os << "agree:n=" << n << ",h=" << rng.nextRange(0, n)
           << ",b=" << rng.nextRange(2, 14);
        break;
      }
      case 4:
        os << "gskew:n=" << rng.nextRange(2, 12)
           << ",partial=" << rng.nextBounded(2);
        break;
      case 5: {
        const auto n = rng.nextRange(2, 11);
        os << "yags:c=" << rng.nextRange(2, 13) << ",n=" << n
           << ",t=" << rng.nextRange(1, 12)
           << ",h=" << rng.nextRange(0, n);
        break;
      }
      case 6:
        os << "tournament:n=" << rng.nextRange(2, 12);
        break;
      case 7:
        os << "perceptron:n=" << rng.nextRange(1, 8)
           << ",h=" << rng.nextRange(1, 40)
           << ",w=" << rng.nextRange(2, 12);
        break;
      case 8: {
        const auto h = rng.nextRange(1, 10);
        os << "gas:h=" << h << ",a=" << rng.nextRange(0, 6);
        break;
      }
      default: {
        const auto h = rng.nextRange(1, 8);
        os << "pas:h=" << h << ",l=" << rng.nextRange(1, 10)
           << ",a=" << rng.nextRange(0, 6);
        break;
      }
    }
    return os.str();
}

MemoryTrace
randomTrace(Rng &rng, std::size_t n)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        BranchRecord record;
        record.pc = 0x400000 + 4 * rng.nextBounded(1u << 14);
        record.target = record.pc + 4 * rng.nextRange(-200, 200);
        record.type = BranchType::Conditional;
        record.taken = rng.nextBool(0.6);
        trace.append(record);
    }
    return trace;
}

TEST(Fuzz, RandomConfigsSurviveRandomStreams)
{
    Rng rng(0xf022);
    for (int round = 0; round < 150; ++round) {
        const std::string config = randomConfig(rng);
        SCOPED_TRACE(config);
        const PredictorPtr predictor = makePredictor(config);
        const std::uint64_t counters = predictor->directionCounters();
        Rng stream_rng = rng.split();
        const bool fast = visitFastPredictor(*predictor, [&](auto &core) {
            ASSERT_GT(counters, 0u);
            for (int i = 0; i < 1500; ++i) {
                const std::uint64_t pc =
                    0x400000 + 4 * stream_rng.nextBounded(4096);
                LastCounterHook served;
                core.stepFast(pc, stream_rng.nextBool(0.55), served);
                ASSERT_LT(served.id, counters);
            }
        });
        EXPECT_TRUE(fast);
        EXPECT_LE(predictor->counterBits(), predictor->storageBits());
    }
}

TEST(Fuzz, SimulateMatchesManualLoop)
{
    // simulate() must agree exactly with a hand-rolled step()
    // loop for any predictor kind.
    Rng rng(0xd1ff);
    for (int round = 0; round < 40; ++round) {
        const std::string config = randomConfig(rng);
        SCOPED_TRACE(config);
        Rng trace_rng = rng.split();
        const MemoryTrace trace = randomTrace(trace_rng, 4000);

        const PredictorPtr by_sim = makePredictor(config);
        auto reader = trace.reader();
        const SimResult result = simulate(*by_sim, reader);

        const PredictorPtr by_hand = makePredictor(config);
        std::uint64_t wrong = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const BranchRecord &record = trace[i];
            wrong += by_hand->step(record.pc, record.taken) != record.taken;
        }
        ASSERT_EQ(result.mispredictions, wrong);
        ASSERT_EQ(result.branches, trace.size());
    }
}

TEST(Fuzz, ResetAfterAnyWorkloadIsClean)
{
    Rng rng(0xc1ea);
    for (int round = 0; round < 40; ++round) {
        const std::string config = randomConfig(rng);
        SCOPED_TRACE(config);
        const PredictorPtr worked = makePredictor(config);
        const PredictorPtr fresh = makePredictor(config);
        Rng stream_rng = rng.split();
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t pc =
                0x400000 + 4 * stream_rng.nextBounded(2048);
            worked->step(pc, stream_rng.nextBool(0.5));
        }
        worked->reset();
        for (std::uint64_t pc = 0x400000; pc < 0x400400; pc += 4) {
            const bool taken = (pc >> 3 & 1) != 0;
            ASSERT_EQ(worked->step(pc, taken), fresh->step(pc, taken))
                << pc;
        }
    }
}

/**
 * A replacement value for a mutated parameter. Widths are drawn at
 * <= 10 bits (so even a two-level h + a stays <= 20) or past every
 * table limit, never in between, where a legal table can be huge.
 */
std::string
mutatedValue(Rng &rng)
{
    static const char *const kOdd[] = {
        "4294967295", "4294967296", "99999999999999999999", "-1",
        "0x1f",       "",           "abc",                  "7x",
    };
    switch (rng.nextBounded(3)) {
      case 0:
        return std::to_string(rng.nextRange(0, 10));
      case 1:
        return std::to_string(rng.nextRange(29, 80));
      default:
        return kOdd[rng.nextBounded(std::size(kOdd))];
    }
}

/** Applies one random edit to @p spec. Inserted characters are never
 *  digits, so no edit can grow a width into the huge-table range. */
void
mutateSpec(Rng &rng, std::string &spec)
{
    static const char kPunct[] = ":,=x- ";
    const std::size_t colon = spec.find(':');
    switch (rng.nextBounded(5)) {
      case 0:
      case 1: {
        // Replace the value of one existing key=value pair.
        std::vector<std::size_t> values;
        for (std::size_t i = 0; i < spec.size(); ++i)
            if (spec[i] == '=')
                values.push_back(i + 1);
        if (values.empty())
            break;
        const std::size_t from = values[rng.nextBounded(values.size())];
        const std::size_t to = spec.find(',', from);
        spec.replace(from,
                     (to == std::string::npos ? spec.size() : to) - from,
                     mutatedValue(rng));
        break;
      }
      case 2: {
        // Append a pair: a duplicate, a misspelling or a fresh key.
        static const char *const kKeys[] = {"n", "h", "w", "d", "c",
                                            "t", "zz"};
        spec += colon == std::string::npos ? ":" : ",";
        spec += kKeys[rng.nextBounded(std::size(kKeys))];
        spec += '=';
        spec += mutatedValue(rng);
        break;
      }
      case 3:
        if (!spec.empty())
            spec.erase(rng.nextBounded(spec.size()), 1);
        break;
      default:
        spec.insert(spec.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.nextBounded(spec.size() + 1)),
                    kPunct[rng.nextBounded(sizeof kPunct - 1)]);
        break;
    }
}

TEST(Fuzz, MutatedSpecsEndInPredictorOrError)
{
    // Seeded from every registered kind's documented example, so a
    // new kind is fuzzed with no change here.
    std::vector<std::string> seeds;
    for (const PredictorKindInfo &info : predictorKindInfos())
        seeds.push_back(info.example);
    Rng rng(0x5bec);
    unsigned built = 0, refused = 0;
    for (int round = 0; round < 3000; ++round) {
        std::string spec = seeds[rng.nextBounded(seeds.size())];
        const auto edits = rng.nextRange(1, 3);
        for (int e = 0; e < edits; ++e)
            mutateSpec(rng, spec);
        SCOPED_TRACE(spec);
        const PredictorResult result = tryMakePredictor(spec);
        if (result.ok()) {
            EXPECT_TRUE(result.error.empty());
            ++built;
        } else {
            EXPECT_FALSE(result.error.empty());
            ++refused;
        }
    }
    // Both outcomes must actually occur for the fuzz to mean much.
    EXPECT_GT(built, 100u);
    EXPECT_GT(refused, 100u);
}

} // namespace
} // namespace bpsim
