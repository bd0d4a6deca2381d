/** @file Tests for the trace-driven simulation loop. */

#include <gtest/gtest.h>

#include <sstream>

#include "predictors/bimodal.hh"
#include "sim/simulator.hh"
#include "trace/memory_trace.hh"

namespace bpsim
{
namespace
{

BranchRecord
cond(std::uint64_t pc, bool taken)
{
    BranchRecord record;
    record.pc = pc;
    record.target = pc + 32;
    record.type = BranchType::Conditional;
    record.taken = taken;
    return record;
}

TEST(Simulator, ExactCounts)
{
    // The counter starts weakly taken and never drops below it, so
    // only the not-taken record is mispredicted.
    MemoryTrace trace;
    trace.append(cond(0x1000, true));
    trace.append(cond(0x1000, false));
    trace.append(cond(0x1000, true));
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const SimResult result = simulate(predictor, reader);
    EXPECT_EQ(result.branches, 3u);
    EXPECT_EQ(result.mispredictions, 1u);
    EXPECT_EQ(result.takenBranches, 2u);
    EXPECT_NEAR(result.mispredictionRate(), 100.0 / 3.0, 1e-9);
    EXPECT_NEAR(result.accuracy(), 200.0 / 3.0, 1e-9);
}

TEST(SimResult, ToJsonIsSelfDescribing)
{
    SimResult result;
    result.predictorName = "gshare(n=4,h=4)";
    result.benchmark = "gcc";
    result.configText = "gshare:n=4";
    result.counterBits = 32;
    result.storageBits = 36;
    result.branches = 8;
    result.mispredictions = 2;
    result.takenBranches = 5;
    std::ostringstream os;
    result.toJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"benchmark\":\"gcc\""), std::string::npos);
    EXPECT_NE(json.find("\"config\":\"gshare:n=4\""),
              std::string::npos);
    EXPECT_NE(json.find("\"predictor\":\"gshare(n=4,h=4)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"branches\":8"), std::string::npos);
    EXPECT_NE(json.find("\"mispredictions\":2"), std::string::npos);
    EXPECT_NE(json.find("\"mispredictionRate\":25"),
              std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Simulator, EmptyTrace)
{
    MemoryTrace trace;
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const SimResult result = simulate(predictor, reader);
    EXPECT_EQ(result.branches, 0u);
    EXPECT_EQ(result.mispredictionRate(), 0.0);
}

TEST(Simulator, SkipsNonConditionalRecords)
{
    MemoryTrace trace;
    trace.append(cond(0x1000, false));
    BranchRecord call = cond(0x1004, true);
    call.type = BranchType::Call;
    trace.append(call);
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    const SimResult result = simulate(predictor, reader);
    EXPECT_EQ(result.branches, 1u);
    EXPECT_EQ(result.mispredictions, 1u);
}

TEST(Simulator, WarmupExcludedFromStats)
{
    MemoryTrace trace;
    for (int i = 0; i < 10; ++i)
        trace.append(cond(0x1000, false));
    // Bimodal starts weakly-taken: the first prediction is wrong,
    // then the counter has crossed to the not-taken side.
    BimodalPredictor cold(4);
    auto reader = trace.reader();
    const SimResult without = simulate(cold, reader);
    EXPECT_EQ(without.mispredictions, 1u);
    EXPECT_EQ(without.branches, 10u);

    BimodalPredictor warmed(4);
    SimConfig config;
    config.warmupBranches = 4;
    auto reader2 = trace.reader();
    const SimResult with = simulate(warmed, reader2, config);
    EXPECT_EQ(with.branches, 6u);
    EXPECT_EQ(with.mispredictions, 0u);
}

TEST(Simulator, RewindsTraceItself)
{
    MemoryTrace trace;
    trace.append(cond(0x1000, true));
    auto reader = trace.reader();
    BranchRecord sink;
    ASSERT_TRUE(reader.next(sink)); // consume before simulating
    BimodalPredictor predictor(4);
    const SimResult result = simulate(predictor, reader);
    EXPECT_EQ(result.branches, 1u) << "simulate() must rewind";
}

TEST(Simulator, PerBranchTracking)
{
    MemoryTrace trace;
    for (int i = 0; i < 6; ++i)
        trace.append(cond(0x1000, true));
    for (int i = 0; i < 4; ++i)
        trace.append(cond(0x2000, i % 2 == 0));
    // Two separate counters that start weakly taken and never drop
    // below it: only the two not-taken records of 0x2000 miss.
    BimodalPredictor predictor(12);
    SimConfig config;
    config.trackPerBranch = true;
    auto reader = trace.reader();
    const SimResult result = simulate(predictor, reader, config);
    ASSERT_EQ(result.perBranch.size(), 2u);
    EXPECT_EQ(result.perBranch[0].pc, 0x1000u);
    EXPECT_EQ(result.perBranch[0].executions, 6u);
    EXPECT_EQ(result.perBranch[0].mispredictions, 0u);
    EXPECT_EQ(result.perBranch[1].pc, 0x2000u);
    EXPECT_EQ(result.perBranch[1].executions, 4u);
    EXPECT_EQ(result.perBranch[1].mispredictions, 2u);
    EXPECT_EQ(result.perBranch[1].takenCount, 2u);
}

TEST(Simulator, ResultCarriesPredictorMetadata)
{
    MemoryTrace trace;
    trace.append(cond(0x1000, true));
    BimodalPredictor predictor(10);
    auto reader = trace.reader();
    const SimResult result = simulate(predictor, reader);
    EXPECT_EQ(result.predictorName, "bimodal(n=10)");
    EXPECT_EQ(result.counterBits, 2048u);
    EXPECT_NEAR(result.counterKBytes(), 0.25, 1e-12);
}

} // namespace
} // namespace bpsim
