/** @file Tests for the incremental campaign scheduler. */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/scheduler.hh"
#include "core/factory.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"

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

MemoryTrace
mixedTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    MemoryTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t site = rng.nextBounded(300);
        const bool biased_taken = site % 3 != 0;
        const bool outcome =
            rng.nextBool(0.1) ? !biased_taken : biased_taken;
        trace.append(cond(0x400000 + 4 * site, outcome));
    }
    return trace;
}

Job
makeJob(std::size_t index, const std::string &config,
        const std::string &benchmark, const PackedTrace &packed)
{
    Job job;
    job.index = index;
    job.configText = config;
    job.benchmark = benchmark;
    job.packed = &packed;
    return job;
}

/** Thread-safe result sink keyed by ticket. */
struct Sink
{
    std::mutex mu;
    std::map<CampaignScheduler::Ticket, JobResult> results;

    CampaignScheduler::CompletionFn fn()
    {
        return [this](CampaignScheduler::Ticket ticket,
                      JobResult result) {
            std::lock_guard<std::mutex> lock(mu);
            results.emplace(ticket, std::move(result));
        };
    }
};

TEST(CampaignScheduler, SubmitRunsJobAndFiresCallback)
{
    const PackedTrace packed(mixedTrace(5'000, 7));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{2, true, 0, false});
    Sink sink;
    const auto ticket = scheduler.submit(
        makeJob(0, "gshare:n=8", "alpha", packed), sink.fn());
    ASSERT_TRUE(ticket.has_value());
    scheduler.drain();
    ASSERT_EQ(sink.results.size(), 1u);
    const JobResult &result = sink.results.at(*ticket);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.benchmark, "alpha");
    EXPECT_EQ(result.result.branches, 5'000u);
}

TEST(CampaignScheduler, TicketsAreUniqueAndMonotonic)
{
    const PackedTrace packed(mixedTrace(500, 3));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{2, true, 0, false});
    Sink sink;
    std::vector<CampaignScheduler::Ticket> tickets;
    for (int i = 0; i < 20; ++i) {
        const auto ticket = scheduler.submit(
            makeJob(i, "bimodal:n=6", "b", packed), sink.fn());
        ASSERT_TRUE(ticket.has_value());
        if (!tickets.empty()) {
            EXPECT_GT(*ticket, tickets.back());
        }
        tickets.push_back(*ticket);
    }
    scheduler.drain();
    EXPECT_EQ(sink.results.size(), 20u);
}

TEST(CampaignScheduler, ConfigErrorCompletesWithJobError)
{
    const PackedTrace packed(mixedTrace(500, 3));
    CampaignScheduler scheduler;
    Sink sink;
    const auto ticket = scheduler.submit(
        makeJob(0, "no-such-predictor:x=1", "b", packed), sink.fn());
    ASSERT_TRUE(ticket.has_value());
    scheduler.drain();
    const JobResult &result = sink.results.at(*ticket);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.error.empty());
}

TEST(CampaignScheduler, ThrowingCallbackFailsOnlyItsOwnTicket)
{
    const PackedTrace packed(mixedTrace(2'000, 5));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{3, true, 0, false});

    std::atomic<int> delivered{0};
    // One poisoned submission among many healthy ones: the throw
    // must be contained to its own ticket, and the pool must keep
    // delivering everything else.
    for (int i = 0; i < 10; ++i) {
        const auto ticket = scheduler.submit(
            makeJob(i, "gshare:n=7", "b", packed),
            [&delivered, i](CampaignScheduler::Ticket, JobResult) {
                if (i == 4)
                    throw std::runtime_error("client stream died");
                ++delivered;
            });
        ASSERT_TRUE(ticket.has_value());
    }
    scheduler.drain();
    EXPECT_EQ(delivered.load(), 9);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 10u);
    EXPECT_EQ(stats.callbackExceptions, 1u);

    // The scheduler is still fully usable afterwards.
    Sink sink;
    const auto ticket = scheduler.submit(
        makeJob(10, "bimodal:n=6", "b", packed), sink.fn());
    ASSERT_TRUE(ticket.has_value());
    scheduler.drain();
    EXPECT_TRUE(sink.results.at(*ticket).ok());
}

TEST(CampaignScheduler, TrySubmitRefusesWhenQueueIsFull)
{
    const PackedTrace packed(mixedTrace(20'000, 9));
    // One worker, paused: nothing dispatches, so the queue fills.
    CampaignScheduler scheduler(
        CampaignScheduler::Options{1, true, 3, true});
    Sink sink;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(scheduler
                        .trySubmit(makeJob(i, "gshare:n=6", "b", packed),
                                   sink.fn())
                        .has_value());
    }
    EXPECT_FALSE(scheduler
                     .trySubmit(makeJob(3, "gshare:n=6", "b", packed),
                                sink.fn())
                     .has_value());
    EXPECT_EQ(scheduler.pendingJobs(), 3u);
    scheduler.drain();
    EXPECT_EQ(sink.results.size(), 3u);
}

TEST(CampaignScheduler, TrySubmitAllIsAllOrNothing)
{
    const PackedTrace packed(mixedTrace(1'000, 9));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{1, true, 4, true});
    Sink sink;

    std::vector<Job> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(makeJob(i, "gshare:n=6", "b", packed));

    const auto first = scheduler.trySubmitAll(batch, sink.fn());
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->size(), 3u);

    // A second batch of three would overflow maxPending = 4: nothing
    // of it may be admitted.
    const auto second = scheduler.trySubmitAll(batch, sink.fn());
    EXPECT_FALSE(second.has_value());
    EXPECT_EQ(scheduler.pendingJobs(), 3u);

    scheduler.drain();
    EXPECT_EQ(sink.results.size(), 3u);
}

TEST(CampaignScheduler, CancelRemovesPendingJob)
{
    const PackedTrace packed(mixedTrace(1'000, 13));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{1, true, 0, true});
    Sink sink;
    const auto keep = scheduler.submit(
        makeJob(0, "gshare:n=6", "b", packed), sink.fn());
    const auto drop = scheduler.submit(
        makeJob(1, "gshare:n=6", "b", packed), sink.fn());
    ASSERT_TRUE(keep && drop);

    EXPECT_TRUE(scheduler.cancel(*drop));
    EXPECT_FALSE(scheduler.cancel(*drop));          // already gone
    EXPECT_FALSE(scheduler.cancel(999'999));        // unknown

    scheduler.drain();
    EXPECT_EQ(sink.results.size(), 1u);
    EXPECT_EQ(sink.results.count(*keep), 1u);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(CampaignScheduler, ShutdownRefusesNewWork)
{
    const PackedTrace packed(mixedTrace(500, 17));
    CampaignScheduler scheduler;
    scheduler.shutdown();
    Sink sink;
    EXPECT_FALSE(scheduler
                     .submit(makeJob(0, "gshare:n=6", "b", packed),
                             sink.fn())
                     .has_value());
    EXPECT_FALSE(scheduler
                     .trySubmit(makeJob(0, "gshare:n=6", "b", packed),
                                sink.fn())
                     .has_value());
}

TEST(CampaignScheduler, PausedSubmissionsFuseAcrossSubmitters)
{
    // Two "clients" each submit half of a fusable sweep into a
    // paused scheduler; on resume the dispatch sweep banks jobs from
    // both, and every result is bit-identical to solo unfused runs.
    const MemoryTrace trace = mixedTrace(30'000, 21);
    const PackedTrace packed(trace);
    const std::vector<std::string> configs = {
        "gshare:n=7", "gshare:n=8", "gshare:n=9", "gshare:n=10"};

    for (const unsigned workers : {1u, 4u}) {
        CampaignScheduler scheduler(
            CampaignScheduler::Options{workers, true, 0, true});
        Sink clientA;
        Sink clientB;
        std::map<CampaignScheduler::Ticket, std::string> configOf;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            Sink &sink = (i % 2 == 0) ? clientA : clientB;
            const auto ticket = scheduler.submit(
                makeJob(i, configs[i], "bench", packed),
                sink.fn());
            ASSERT_TRUE(ticket.has_value());
            configOf[*ticket] = configs[i];
        }
        scheduler.drain();
        ASSERT_EQ(clientA.results.size(), 2u);
        ASSERT_EQ(clientB.results.size(), 2u);
        const auto stats = scheduler.stats();
        EXPECT_GE(stats.fusedBanks, 1u) << "workers=" << workers;

        // Reference: each config alone, unfused.
        for (const auto &entry : configOf) {
            const auto &resultsOf = clientA.results.count(entry.first)
                                        ? clientA.results
                                        : clientB.results;
            const JobResult &fused = resultsOf.at(entry.first);
            ASSERT_TRUE(fused.ok()) << fused.error;
            const JobResult solo = runJob(
                makeJob(0, entry.second, "bench", packed));
            ASSERT_TRUE(solo.ok());
            EXPECT_EQ(fused.result.mispredictions,
                      solo.result.mispredictions)
                << entry.second << " workers=" << workers;
            EXPECT_EQ(fused.result.branches, solo.result.branches);
            EXPECT_EQ(fused.result.takenBranches,
                      solo.result.takenBranches);
        }
    }
}

TEST(CampaignScheduler, UnfusedFastKindsStillRunTheSoloKernel)
{
    // With fusion off every batch is a batch of one: each job takes
    // the solo kernel (timed alone), with the virtual loop's counts.
    const MemoryTrace trace = mixedTrace(20'000, 5);
    const PackedTrace packed(trace);
    const std::vector<std::string> configs = {
        "gshare:n=8", "gshare:n=9", "bimode:d=7", "tournament:n=7"};
    CampaignScheduler scheduler(
        CampaignScheduler::Options{2, false, 0, true});
    Sink sink;
    std::map<CampaignScheduler::Ticket, std::string> configOf;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto ticket = scheduler.submit(
            makeJob(i, configs[i], "bench", packed), sink.fn());
        ASSERT_TRUE(ticket.has_value());
        configOf[*ticket] = configs[i];
    }
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().fusedBanks, 0u);
    for (const auto &[ticket, config] : configOf) {
        const JobResult &result = sink.results.at(ticket);
        ASSERT_TRUE(result.ok()) << config << ": " << result.error;
        EXPECT_EQ(result.result.fusedLanes, 0u) << config;
        EXPECT_EQ(result.result.kernelTier, KernelTier::Scalar) << config;
        PredictorPtr oracle = makePredictor(config);
        auto reader = trace.reader();
        const SimResult expected = simulate(*oracle, reader);
        EXPECT_EQ(result.result.mispredictions, expected.mispredictions)
            << config;
        EXPECT_EQ(result.result.takenBranches, expected.takenBranches)
            << config;
    }
}

TEST(CampaignScheduler, PauseHoldsWorkAndResumeReleasesIt)
{
    const PackedTrace packed(mixedTrace(1'000, 23));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{2, true, 0, true});
    Sink sink;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(scheduler
                        .submit(makeJob(i, "bimodal:n=6", "b", packed),
                                sink.fn())
                        .has_value());
    }
    EXPECT_EQ(scheduler.pendingJobs(), 4u);
    scheduler.resume();
    scheduler.drain();
    EXPECT_EQ(sink.results.size(), 4u);
    EXPECT_EQ(scheduler.pendingJobs(), 0u);
}

TEST(CampaignScheduler, ConcurrentShutdownCallsAreSafe)
{
    // shutdown() is documented idempotent; racing callers must not
    // double-join the pool (which throws std::system_error). Every
    // caller returns only once the pool is fully joined.
    const PackedTrace packed(mixedTrace(2'000, 31));
    for (int round = 0; round < 8; ++round) {
        CampaignScheduler scheduler(
            CampaignScheduler::Options{2, true, 0, false});
        Sink sink;
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(scheduler
                            .submit(makeJob(i, "gshare:n=6", "b", packed),
                                    sink.fn())
                            .has_value());
        }
        std::vector<std::thread> callers;
        for (int t = 0; t < 4; ++t) {
            callers.emplace_back(
                [&scheduler] { scheduler.shutdown(); });
        }
        for (std::thread &caller : callers)
            caller.join();
        EXPECT_EQ(sink.results.size(), 8u);
    }
}

TEST(CampaignScheduler, WideFusionSweepSurvivesBatchGrowth)
{
    // Regression: the dispatch-time fusion sweep used to compare
    // against a reference into the batch vector it was growing; the
    // first reallocation dangled it. Enough fusable lanes to force
    // several reallocations must still bank correctly and produce
    // solo-identical results.
    const MemoryTrace trace = mixedTrace(20'000, 37);
    const PackedTrace packed(trace);
    CampaignScheduler scheduler(
        CampaignScheduler::Options{1, true, 0, true});
    Sink sink;
    std::map<CampaignScheduler::Ticket, std::string> configOf;
    for (int n = 4; n <= 25; ++n) {
        const std::string config = "gshare:n=" + std::to_string(n);
        const auto ticket = scheduler.submit(
            makeJob(configOf.size(), config, "bench", packed),
            sink.fn());
        ASSERT_TRUE(ticket.has_value());
        configOf[*ticket] = config;
    }
    scheduler.resume();
    scheduler.drain();
    ASSERT_EQ(sink.results.size(), configOf.size());
    EXPECT_GE(scheduler.stats().fusedBanks, 1u);
    for (const auto &entry : configOf) {
        const JobResult &fused = sink.results.at(entry.first);
        ASSERT_TRUE(fused.ok()) << fused.error;
        const JobResult solo = runJob(
            makeJob(0, entry.second, "bench", packed));
        ASSERT_TRUE(solo.ok());
        EXPECT_EQ(fused.result.mispredictions,
                  solo.result.mispredictions)
            << entry.second;
        EXPECT_EQ(fused.result.branches, solo.result.branches);
    }
}

TEST(CampaignScheduler, StatsCountersAreConsistent)
{
    const PackedTrace packed(mixedTrace(1'000, 29));
    CampaignScheduler scheduler(
        CampaignScheduler::Options{2, true, 0, false});
    Sink sink;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(scheduler
                        .submit(makeJob(i, "gshare:n=6", "b", packed),
                                sink.fn())
                        .has_value());
    }
    scheduler.drain();
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.cancelled, 0u);
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_EQ(stats.inFlight, 0u);
}

} // namespace
} // namespace bpsim
