/**
 * @file
 * Tests of the benchmark program's own logic: the percentile rule, the
 * pinned-digest gate, the serve-mix connection bound, the seed mapping
 * and the span breakdown behind unattributed_ms.
 */

#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "e2e.hh"
#include "workload/benchmarks.hh"
#include "workload/spec_io.hh"

namespace bpsim::e2e
{
namespace
{

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

TEST(TailPercentile, HighestLadderPercentileWithTenSamplesBeyond)
{
    // n -> expected percentile: p90 needs n >= 100, p95 n >= 200,
    // p99 n >= 1000, p99.9 n >= 10000.
    const std::vector<std::pair<std::size_t, double>> cases = {
        {20, 50.0},   {99, 50.0},    {100, 90.0},   {199, 90.0},
        {200, 95.0},  {999, 95.0},   {1000, 99.0},  {9999, 99.0},
        {10000, 99.9}};
    for (const auto &[n, percentile] : cases) {
        std::vector<double> values = iota(n);
        // Order-independent: the rule sorts.
        std::reverse(values.begin(), values.end());
        const TailStat tail = tailPercentile(values);
        EXPECT_DOUBLE_EQ(tail.percentile, percentile) << "n=" << n;
        const auto beyond = std::count_if(
            values.begin(), values.end(),
            [&](double v) { return v > tail.value; });
        EXPECT_GE(beyond, 10) << "n=" << n;
        EXPECT_EQ(tail.samples, n);
    }
    // p99 of 1..1000 is the 990th value: exactly ten beyond.
    EXPECT_DOUBLE_EQ(tailPercentile(iota(1000)).value, 990.0);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMaximum)
{
    const TailStat tail = tailPercentile(iota(19));
    EXPECT_DOUBLE_EQ(tail.value, 19.0);
    EXPECT_DOUBLE_EQ(tail.percentile, 100.0);
    EXPECT_DOUBLE_EQ(tailPercentile({}).value, 0.0);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

class PinnedDigest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The working directory: ctest runs inside the build tree.
        path = "e2e_reference_test.json";
        std::ofstream(path) << "{\"repro-cold.digest\": \""
                            << hexDigest("outputs") << "\"}\n";
    }
    void TearDown() override { std::filesystem::remove(path); }
    std::string path;
};

TEST_F(PinnedDigest, MatchingDigestPasses)
{
    Checks checks;
    checkPinnedDigest(checks, path, "repro-cold.digest",
                      hexDigest("outputs"));
    EXPECT_TRUE(checks.correct());
    EXPECT_EQ(checks.attempted(), 1u);
}

TEST_F(PinnedDigest, CorruptedDigestFailsTheRun)
{
    std::ofstream(path) << "{\"repro-cold.digest\": \"0000000000000000\"}\n";
    Checks checks;
    checkPinnedDigest(checks, path, "repro-cold.digest",
                      hexDigest("outputs"));
    EXPECT_FALSE(checks.correct());
    EXPECT_EQ(checks.failed(), 1u);

    Report report;
    report.add("wall_s", 1.0, "s");
    EXPECT_NE(report.json(checks).find("\"correct\":false"),
              std::string::npos);
}

TEST_F(PinnedDigest, MissingPinFails)
{
    Checks checks;
    checkPinnedDigest(checks, path + ".absent", "repro-cold.digest",
                      hexDigest("outputs"));
    EXPECT_FALSE(checks.correct());
}

TEST(ServeTopology, NeverMoreConnectionsThanProcessors)
{
    for (unsigned nproc = 1; nproc <= 64; ++nproc) {
        const ServeTopology t = serveTopology(nproc);
        EXPECT_GE(t.clients, 1u);
        EXPECT_LE(t.clients, nproc) << "nproc=" << nproc;
        EXPECT_GE(t.daemonJobs, 1u);
        EXPECT_LE(t.clients + t.daemonJobs, std::max(nproc, 2u))
            << "nproc=" << nproc;
    }
    EXPECT_EQ(serveTopology(4).clients, 2u);
    EXPECT_EQ(serveTopology(4).daemonJobs, 2u);
}

TEST(OfflineWorkers, TwoAtMostAndNeverMoreThanProcessors)
{
    EXPECT_EQ(offlineWorkers(0), 1u);
    EXPECT_EQ(offlineWorkers(1), 1u);
    for (unsigned nproc = 2; nproc <= 64; ++nproc)
        EXPECT_EQ(offlineWorkers(nproc), 2u) << "nproc=" << nproc;
}

TEST(MixGenerator, SeededDrawsRepeatAndCoverEveryShape)
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : allBenchmarks())
        names.push_back(spec.name);
    MixGenerator a(7, 0, names), b(7, 0, names), other(8, 0, names);
    std::set<int> shapes;
    bool differs = false;
    for (int i = 0; i < 200; ++i) {
        const MixDraw x = a.next(), y = b.next(), z = other.next();
        EXPECT_EQ(x.request.configs, y.request.configs);
        EXPECT_EQ(x.request.benchmarks, y.request.benchmarks);
        differs = differs || x.request.configs != z.request.configs;
        shapes.insert(static_cast<int>(x.shape));
        EXPECT_EQ(x.request.divisor, kSizeDivisor);
        EXPECT_LE(x.request.jobCount(), 13u * 3u);
        EXPECT_EQ(x.request.perBranch,
                  x.shape == MixDraw::Shape::PerBranch);
    }
    EXPECT_TRUE(differs);
    EXPECT_EQ(shapes.size(), 3u);
}

/** The built-in suite at the benchmark's size. */
std::vector<WorkloadSpec>
builtInSuite()
{
    std::vector<WorkloadSpec> suite = allBenchmarks();
    for (WorkloadSpec &spec : suite)
        spec = scaledBenchmark(std::move(spec), kSizeDivisor);
    return suite;
}

TEST(SeededSuite, DefaultSeedReproducesTheBuiltInSpecs)
{
    const std::vector<WorkloadSpec> builtIn = builtInSuite();
    const std::vector<WorkloadSpec> seeded = seededSuite(kDefaultSeed);
    ASSERT_EQ(seeded.size(), builtIn.size());
    for (std::size_t i = 0; i < builtIn.size(); ++i) {
        std::ostringstream a, b;
        writeWorkloadSpec(a, builtIn[i]);
        writeWorkloadSpec(b, seeded[i]);
        EXPECT_EQ(a.str(), b.str()) << builtIn[i].name;
    }
}

TEST(SeededSuite, OtherSeedsChangeOnlyTheGeneratorSeed)
{
    const std::vector<WorkloadSpec> builtIn = builtInSuite();
    const std::vector<WorkloadSpec> seeded = seededSuite(3);
    for (std::size_t i = 0; i < builtIn.size(); ++i) {
        EXPECT_NE(seeded[i].seed, builtIn[i].seed);
        WorkloadSpec restored = seeded[i];
        restored.seed = builtIn[i].seed;
        std::ostringstream a, b;
        writeWorkloadSpec(a, builtIn[i]);
        writeWorkloadSpec(b, restored);
        EXPECT_EQ(a.str(), b.str());
    }
    EXPECT_EQ(seededSuite(3)[0].seed, seeded[0].seed);
}

Tracer::Span
span(const char *name, std::uint32_t id, std::uint32_t parent,
     std::int64_t startMs, std::int64_t endMs)
{
    Tracer::Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startNs = startMs * 1'000'000;
    s.endNs = endMs * 1'000'000;
    return s;
}

TEST(BreakDown, SelfTimeAndUnattributedTime)
{
    // Root 0..100 ms; a phase span (not a layer) holding two
    // overlapping campaign.run spans 10..40 and 30..50 on different
    // threads, and a core.build span 60..70. 10..30 + 50..60 + 70..100
    // of the root is covered by no layer span.
    const std::vector<Tracer::Span> spans = {
        span("e2e.unit", 1, 0, 0, 100),
        span("phase.fig2", 2, 1, 5, 80),
        span("campaign.run", 3, 2, 10, 40),
        span("campaign.run", 4, 2, 30, 50),
        span("core.build", 5, 1, 60, 70),
    };
    const SpanBreakdown b = breakDown(spans, "e2e.unit");
    EXPECT_DOUBLE_EQ(b.rootMs, 100.0);
    EXPECT_DOUBLE_EQ(b.unattributedMs, 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(b.selfMs.at("campaign.run"), 50.0);
    // phase.fig2: 75 ms minus the 10..50 its children cover.
    EXPECT_DOUBLE_EQ(b.selfMs.at("phase.fig2"), 35.0);
    EXPECT_TRUE(isLayerSpan("trace.store_load"));
    EXPECT_FALSE(isLayerSpan("phase.fig2"));
    EXPECT_FALSE(isLayerSpan("e2e.unit"));
}

TEST(Tracer, RecordsNestedSpansOnlyWhenEnabled)
{
    Tracer t;
    {
        const Tracer::Scope off(t, "campaign.run");
    }
    EXPECT_TRUE(t.spans().empty());
    t.setEnabled(true);
    {
        const Tracer::Scope outer(t, "e2e.unit");
        const Tracer::Scope inner(t, "campaign.run");
    }
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    // Inner closes first.
    EXPECT_EQ(spans[0].name, "campaign.run");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    std::ostringstream os;
    t.writeChromeJson(os);
    EXPECT_EQ(os.str().rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(StripTiming, RemovesOnlyTheTimingMembers)
{
    const std::string plain =
        "{\"ok\":true,\"result\":{\"benchmark\":\"go\",\"branches\":5}}";
    const std::string timed =
        "{\"ok\":true,\"result\":{\"benchmark\":\"go\",\"branches\":5,"
        "\"wallNanos\":12,\"branchesPerSec\":4.1e+08,\"fusedLanes\":2,"
        "\"kernelTier\":\"avx2\"}}";
    EXPECT_EQ(stripTiming(timed), plain);
    EXPECT_EQ(stripTiming(plain), plain);
}

} // namespace
} // namespace bpsim::e2e
