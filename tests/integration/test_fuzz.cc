/**
 * @file
 * Seeded fuzz tests: random-but-valid predictor configurations
 * driven by random branch streams, checking the interface contract
 * (no crashes, counter-hook invariants, simulate() equivalence) holds far
 * from the hand-picked configurations the unit tests use.
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
        // Fast cores step with the counter hook; the rest through the
        // virtual interface.
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
        for (int i = 0; !fast && i < 1500; ++i) {
            const std::uint64_t pc =
                0x400000 + 4 * stream_rng.nextBounded(4096);
            (void)predictor->predict(pc);
            predictor->observeTarget(pc, pc + 64);
            predictor->update(pc, stream_rng.nextBool(0.55));
        }
        EXPECT_LE(predictor->counterBits(), predictor->storageBits());
    }
}

TEST(Fuzz, SimulateMatchesManualLoop)
{
    // simulate() must agree exactly with a hand-rolled
    // predict/observe/update loop for any predictor kind.
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
            wrong += by_hand->predict(record.pc) != record.taken;
            by_hand->observeTarget(record.pc, record.target);
            by_hand->update(record.pc, record.taken);
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
            worked->observeTarget(pc, pc + 32);
            worked->update(pc, stream_rng.nextBool(0.5));
        }
        worked->reset();
        for (std::uint64_t pc = 0x400000; pc < 0x400400; pc += 4)
            ASSERT_EQ(worked->predict(pc), fresh->predict(pc)) << pc;
    }
}

} // namespace
} // namespace bpsim
