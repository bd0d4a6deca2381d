/** @file Tests for the experiment campaign engine and its emitters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
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

/** A mixed-behaviour trace: per-site bias plus noise, enough sites
 *  to make different predictors disagree. */
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

std::vector<BenchmarkTrace>
threeBenchmarks(const MemoryTrace &a, const MemoryTrace &b,
                const MemoryTrace &c)
{
    return {{"alpha", &a}, {"beta", &b}, {"gamma", &c}};
}

TEST(Campaign, GridExpansionIsConfigMajor)
{
    const MemoryTrace trace = mixedTrace(100, 1);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bimodal:n=6"},
                     threeBenchmarks(trace, trace, trace));
    ASSERT_EQ(campaign.jobCount(), 6u);
    const auto &jobs = campaign.jobs();
    EXPECT_EQ(jobs[0].configText, "gshare:n=6");
    EXPECT_EQ(jobs[0].benchmark, "alpha");
    EXPECT_EQ(jobs[2].configText, "gshare:n=6");
    EXPECT_EQ(jobs[2].benchmark, "gamma");
    EXPECT_EQ(jobs[3].configText, "bimodal:n=6");
    EXPECT_EQ(jobs[3].benchmark, "alpha");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(Campaign, SerialAndParallelAreBitIdentical)
{
    const MemoryTrace a = mixedTrace(20'000, 11);
    const MemoryTrace b = mixedTrace(20'000, 22);
    const MemoryTrace c = mixedTrace(20'000, 33);
    Campaign campaign;
    campaign.addGrid({"gshare:n=8", "bimode:d=7", "bimodal:n=7",
                      "perceptron:n=4,h=8"},
                     threeBenchmarks(a, b, c));

    const auto serial = campaign.run(1);
    const auto parallel = campaign.run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].index, parallel[i].index);
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
        EXPECT_EQ(serial[i].configText, parallel[i].configText);
        EXPECT_EQ(serial[i].error, parallel[i].error);
        EXPECT_EQ(serial[i].result.predictorName,
                  parallel[i].result.predictorName);
        EXPECT_EQ(serial[i].result.branches,
                  parallel[i].result.branches);
        EXPECT_EQ(serial[i].result.mispredictions,
                  parallel[i].result.mispredictions);
        EXPECT_EQ(serial[i].result.takenBranches,
                  parallel[i].result.takenBranches);
        EXPECT_EQ(serial[i].result.counterBits,
                  parallel[i].result.counterBits);
    }
}

TEST(Campaign, ResultsCarryBenchmarkAndConfigIdentity)
{
    const MemoryTrace trace = mixedTrace(1'000, 7);
    Campaign campaign;
    campaign.addJob("gshare:n=6", {"alpha", &trace});
    const auto results = campaign.run(1);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok());
    EXPECT_EQ(results[0].result.benchmark, "alpha");
    EXPECT_EQ(results[0].result.configText, "gshare:n=6");
    EXPECT_EQ(results[0].result.predictorName, "gshare(n=6,h=6)");
}

TEST(Campaign, BadConfigIsAPerJobError)
{
    const MemoryTrace trace = mixedTrace(1'000, 5);
    Campaign campaign;
    campaign.addGrid({"bogus:", "gshare:n=", "gshare:n=6"},
                     {{"alpha", &trace}});
    const auto results = campaign.run(2);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("unknown predictor kind"),
              std::string::npos);
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("not a number"),
              std::string::npos);
    // The good job still ran to completion.
    ASSERT_TRUE(results[2].ok());
    EXPECT_GT(results[2].result.branches, 0u);
}

TEST(Campaign, MissingTraceIsAPerJobError)
{
    Campaign campaign;
    campaign.addJob("gshare:n=6", {"alpha", nullptr});
    const auto results = campaign.run(1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("no trace"), std::string::npos);
}

TEST(Campaign, ProgressReportsEveryJobExactlyOnce)
{
    const MemoryTrace trace = mixedTrace(2'000, 3);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bimodal:n=6", "bimode:d=5"},
                     threeBenchmarks(trace, trace, trace));
    std::set<std::size_t> seen;
    std::size_t final_completed = 0;
    const auto results = campaign.run(
        4, [&](const CampaignProgress &progress) {
            // Serialized under the campaign lock: no races here.
            seen.insert(progress.latest->index);
            final_completed = progress.completed;
            EXPECT_EQ(progress.total, 9u);
        });
    EXPECT_EQ(seen.size(), 9u);
    EXPECT_EQ(final_completed, 9u);
    EXPECT_EQ(results.size(), 9u);
}

TEST(Campaign, ThrowingProgressCallbackDoesNotKillTheRun)
{
    // An exception escaping into a worker thread would std::terminate
    // the whole process; the campaign must absorb it, disable the
    // hook, and still return every result.
    const MemoryTrace trace = mixedTrace(2'000, 17);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bimodal:n=6", "bimode:d=5"},
                     threeBenchmarks(trace, trace, trace));
    const auto results = campaign.run(4, [](const CampaignProgress &) {
        throw std::runtime_error("broken hook");
    });
    ASSERT_EQ(results.size(), 9u);
    for (const JobResult &result : results)
        EXPECT_TRUE(result.ok()) << result.error;
}

TEST(Campaign, WarmTraceStoreRunIsByteIdenticalJson)
{
    // The trace-store acceptance gate in miniature: a campaign over a
    // cold store and the same campaign over the warmed store must
    // produce byte-identical JSON.
    const std::string dir = ::testing::TempDir() + "campaign_warm";
    std::filesystem::remove_all(dir);

    WorkloadSpec tiny;
    tiny.name = "tiny";
    tiny.staticBranches = 50;
    tiny.dynamicBranches = 5'000;
    tiny.seed = 21;

    const auto run_once = [&](std::size_t &generated) {
        TraceCache cache(dir);
        Campaign campaign;
        campaign.addGrid({"gshare:n=7", "bimode:d=6"},
                         resolveTraces(cache, {tiny}));
        const auto results = campaign.run(2);
        generated = cache.stats().generated;
        std::ostringstream os;
        writeResultsJson(os, results);
        return os.str();
    };

    std::size_t cold_generated = 0, warm_generated = 0;
    const std::string cold = run_once(cold_generated);
    const std::string warm = run_once(warm_generated);
    EXPECT_EQ(cold_generated, 1u);
    EXPECT_EQ(warm_generated, 0u);
    EXPECT_EQ(cold, warm);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResolveTracesGeneratesOnceAndShares)
{
    WorkloadSpec tiny;
    tiny.name = "tiny";
    tiny.staticBranches = 50;
    tiny.dynamicBranches = 5'000;
    TraceCache cache;
    const auto first = resolveTraces(cache, {tiny});
    const auto second = resolveTraces(cache, {tiny});
    EXPECT_EQ(cache.generatedCount(), 1u);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].trace, second[0].trace);
    EXPECT_EQ(first[0].name, "tiny");
}

/** Specs of distinct sizes, so largest-first reorders them. */
std::vector<WorkloadSpec>
resolveSpecs()
{
    std::vector<WorkloadSpec> specs;
    const std::uint64_t sizes[] = {4'000, 30'000, 9'000, 60'000, 15'000};
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        WorkloadSpec spec;
        spec.name = "resolve" + std::to_string(i);
        spec.staticBranches = 80;
        spec.dynamicBranches = sizes[i];
        spec.seed = 40 + i;
        specs.push_back(spec);
    }
    return specs;
}

/** The bytes of every file in @p dir, by file name. */
std::map<std::string, std::string>
filesIn(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] =
            std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    }
    return files;
}

TEST(Campaign, ParallelResolveMatchesSerialTracesAndStoreFiles)
{
    const std::string serialDir = ::testing::TempDir() + "resolve_serial";
    const std::string parallelDir =
        ::testing::TempDir() + "resolve_parallel";
    std::filesystem::remove_all(serialDir);
    std::filesystem::remove_all(parallelDir);
    const std::vector<WorkloadSpec> specs = resolveSpecs();

    TraceCache serialCache(serialDir);
    TraceCache parallelCache(parallelDir);
    const auto serial = resolveTraces(serialCache, specs);
    const auto parallel = resolveTraces(parallelCache, specs, 4);
    EXPECT_EQ(parallelCache.stats().generated, specs.size());
    EXPECT_EQ(parallelCache.stats().packedBuilt, specs.size());

    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Spec order, whatever order the threads took them in.
        EXPECT_EQ(parallel[i].name, specs[i].name);
        ASSERT_EQ(parallel[i].trace->size(), specs[i].dynamicBranches);
        EXPECT_EQ(parallel[i].trace->data(), serial[i].trace->data())
            << specs[i].name;
        const PackedTrace &a = *serial[i].packed;
        const PackedTrace &b = *parallel[i].packed;
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(a.wordCount(), b.wordCount());
        EXPECT_TRUE(std::equal(a.pcData(), a.pcData() + a.size(),
                               b.pcData()))
            << specs[i].name;
        EXPECT_TRUE(std::equal(a.wordData(), a.wordData() + a.wordCount(),
                               b.wordData()))
            << specs[i].name;
    }

    // BBT1, PBT1 and sidecar files: same names, same bytes, and no
    // temp file left behind.
    const auto serialFiles = filesIn(serialDir);
    const auto parallelFiles = filesIn(parallelDir);
    EXPECT_EQ(serialFiles.size(), 3 * specs.size());
    EXPECT_TRUE(serialFiles == parallelFiles);
    std::filesystem::remove_all(serialDir);
    std::filesystem::remove_all(parallelDir);
}

TEST(Campaign, ParallelResolveSharesWhatIsResidentAndGeneratesTheRest)
{
    const std::vector<WorkloadSpec> specs = resolveSpecs();
    TraceCache cache;
    const auto first = resolveTraces(cache, {specs[1], specs[3]});
    const auto all = resolveTraces(cache, specs, 4);
    EXPECT_EQ(cache.stats().generated, specs.size());
    EXPECT_EQ(all[1].trace, first[0].trace);
    EXPECT_EQ(all[3].packed, first[1].packed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(all[i].name, specs[i].name);
        EXPECT_TRUE(cache.resident(specs[i])) << specs[i].name;
    }
    // All resident: same handles again, nothing generated.
    const auto again = resolveTraces(cache, specs, 4);
    EXPECT_EQ(cache.stats().generated, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(again[i].trace, all[i].trace);
}

TEST(Campaign, ResolveTracesRethrowsAHelpersExceptionOnTheCaller)
{
    // A dynamic count no vector can reserve: generation throws
    // std::length_error on whichever thread takes the spec. With
    // every spec throwing and four threads, helpers throw too; their
    // exceptions must reach this thread instead of terminating.
    std::vector<WorkloadSpec> specs = resolveSpecs();
    for (WorkloadSpec &spec : specs)
        spec.dynamicBranches = std::numeric_limits<std::uint64_t>::max();
    TraceCache cache;
    EXPECT_THROW(resolveTraces(cache, specs, 4), std::length_error);
    EXPECT_EQ(cache.stats().generated, 0u);

    // One bad spec among good ones fails the call the same way.
    std::vector<WorkloadSpec> mixed = resolveSpecs();
    mixed[2].name = "unreservable";
    mixed[2].dynamicBranches = std::numeric_limits<std::uint64_t>::max();
    TraceCache other;
    EXPECT_THROW(resolveTraces(other, mixed, 4), std::length_error);
}

TEST(Campaign, WorkerCountDefaults)
{
    const unsigned hardware = std::thread::hardware_concurrency();
    EXPECT_EQ(defaultWorkerCount(), hardware == 0 ? 1u : hardware);
}

TEST(CampaignEmitters, JsonCarriesResultsAndErrors)
{
    const MemoryTrace trace = mixedTrace(1'000, 9);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bogus:"}, {{"alpha", &trace}});
    const auto results = campaign.run(1);
    std::ostringstream os;
    writeResultsJson(os, results);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"config\":\"gshare:n=6\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mispredictionRate\":"), std::string::npos);
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(json.find("unknown predictor kind 'bogus'"),
              std::string::npos);
}

TEST(CampaignEmitters, TableHasOneRowPerJob)
{
    const MemoryTrace trace = mixedTrace(1'000, 13);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bogus:"}, {{"alpha", &trace}});
    const auto results = campaign.run(1);
    const TextTable table = resultsTable(results);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(CampaignEmitters, TimingColumnIsOptIn)
{
    const MemoryTrace trace = mixedTrace(1'000, 13);
    Campaign campaign;
    campaign.addGrid({"gshare:n=6", "bogus:"}, {{"alpha", &trace}});
    const auto results = campaign.run(1);

    std::ostringstream plain, timed;
    resultsTable(results).print(plain);
    resultsTable(results, /*withTiming=*/true).print(timed);
    EXPECT_EQ(plain.str().find("Mbr/s"), std::string::npos);
    EXPECT_NE(timed.str().find("Mbr/s"), std::string::npos);
    // The failed job renders a placeholder, not a rate.
    EXPECT_NE(timed.str().find("--"), std::string::npos);
}

} // namespace
} // namespace bpsim
