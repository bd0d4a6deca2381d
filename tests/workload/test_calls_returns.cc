/** @file Tests for opt-in call/return emission in the generator. */

#include <gtest/gtest.h>

#include <vector>

#include "workload/generator.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
callSpec()
{
    WorkloadSpec spec;
    spec.name = "calls";
    spec.suite = "test";
    spec.staticBranches = 300;
    spec.dynamicBranches = 60'000;
    spec.seed = 17;
    spec.emitCallsAndReturns = true;
    spec.callSiteProbability = 0.15;
    return spec;
}

TEST(CallsReturns, DisabledByDefault)
{
    WorkloadSpec spec = callSpec();
    spec.emitCallsAndReturns = false;
    const MemoryTrace trace = generateWorkloadTrace(spec);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_TRUE(trace[i].isConditional());
}

TEST(CallsReturns, FlagDoesNotPerturbConditionalStream)
{
    // With the flag off, the trace must be identical to the
    // pre-flag behaviour (same seed, same records) — the flag must
    // not consume RNG draws when disabled.
    WorkloadSpec off = callSpec();
    off.emitCallsAndReturns = false;
    const MemoryTrace a = generateWorkloadTrace(off);
    const MemoryTrace b = generateWorkloadTrace(off);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]);
}

TEST(CallsReturns, EmitsCallsAndReturns)
{
    const MemoryTrace trace = generateWorkloadTrace(callSpec());
    std::uint64_t calls = 0, returns = 0, conditionals = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        switch (trace[i].type) {
          case BranchType::Call: ++calls; break;
          case BranchType::Return: ++returns; break;
          case BranchType::Conditional: ++conditionals; break;
          default: break;
        }
    }
    EXPECT_GT(calls, 1000u);
    EXPECT_GT(conditionals, 40'000u);
    // Returns pair with calls except those cut off by the trace end.
    EXPECT_LE(returns, calls);
    EXPECT_GE(returns + 16, calls);
}

TEST(CallsReturns, CallsAndReturnsNestProperly)
{
    // Walking the trace with an ideal unbounded stack: every return
    // must match the most recent open call (target == call pc + 4).
    const MemoryTrace trace = generateWorkloadTrace(callSpec());
    std::vector<std::uint64_t> stack;
    std::uint64_t matched = 0, mismatched = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        if (record.type == BranchType::Call) {
            stack.push_back(record.pc + 4);
        } else if (record.type == BranchType::Return) {
            ASSERT_FALSE(stack.empty()) << "return without call";
            if (record.target == stack.back())
                ++matched;
            else
                ++mismatched;
            stack.pop_back();
        }
    }
    EXPECT_GT(matched, 0u);
    EXPECT_EQ(mismatched, 0u)
        << "every return must target its matching call site";
}

TEST(CallsReturns, SimulatorIgnoresNonConditionals)
{
    // Accuracy statistics must be computed over conditionals only,
    // so a flag-on trace yields the same branch count as its
    // conditional subset.
    const MemoryTrace trace = generateWorkloadTrace(callSpec());
    std::uint64_t conditionals = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        conditionals += trace[i].isConditional();
    EXPECT_LT(conditionals, trace.size());
}

} // namespace
} // namespace bpsim
