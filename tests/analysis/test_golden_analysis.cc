/**
 * @file
 * Golden regression pins for the Section 4 analyses.
 *
 * Figures 5-8 and Tables 3-4 rest on the stream decomposition, the
 * bias-class breakdown, the class-transition count and the
 * interference taxonomy. These tests freeze all four for one
 * configuration of every fast-replay predictor kind on the first
 * 100k records of gcc and go (the GoldenTraces workloads), so any
 * change to how a predictor reports its serving counter, or to how
 * the analyses replay, shows up as a changed line here. Doubles are
 * printed with 17 significant digits: the pins are exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bias_analysis.hh"
#include "analysis/interference.hh"
#include "core/factory.hh"
#include "trace/codec.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

/** One configuration per fast-replay kind. */
const char *const kConfigs[] = {
    "bimodal:n=8",         "gag:h=8",
    "gas:h=6,a=3",         "pag:h=6,l=7",
    "pas:h=5,l=7,a=3",     "gshare:n=10,h=4",
    "bimode:d=9",          "agree:n=10,b=7",
    "gskew:n=8",           "yags:c=10,n=8,t=7",
    "tournament:n=8",      "filter:n=10,k=3,b=7",
};

MemoryTrace
first100k(const std::string &name)
{
    auto spec = findBenchmark(name);
    EXPECT_TRUE(spec.has_value());
    spec->dynamicBranches = 100'000;
    return generateWorkloadTrace(*spec);
}

/** FNV-1a over the streams sorted by (pc, counter id). */
std::uint64_t
hashStreams(const StreamTracker &tracker)
{
    std::vector<const StreamStats *> streams = tracker.allStreams();
    std::sort(streams.begin(), streams.end(),
              [](const StreamStats *a, const StreamStats *b) {
                  return a->pc != b->pc ? a->pc < b->pc
                                        : a->counterId < b->counterId;
              });
    Fnv1a hash;
    for (const StreamStats *s : streams) {
        const std::uint64_t fields[] = {s->pc, s->counterId, s->count,
                                        s->takenCount, s->mispredictions};
        for (std::uint64_t field : fields) {
            std::uint8_t bytes[8];
            for (int b = 0; b < 8; ++b)
                bytes[b] = static_cast<std::uint8_t>(field >> (8 * b));
            hash.update(bytes, sizeof(bytes));
        }
    }
    return hash.digest();
}

/** Every Section 4 number of one (config, trace) pair, one line. */
std::string
analysisLine(const std::string &config, const MemoryTrace &trace)
{
    PredictorPtr predictor = makePredictor(config);
    auto reader = trace.reader();
    BiasAnalysis analysis(*predictor, reader);
    analysis.run();
    const MispredictionBreakdown b = analysis.breakdown();
    const TransitionCounts t = analysis.countTransitions();
    PredictorPtr fresh = makePredictor(config);
    auto reader2 = trace.reader();
    const InterferenceStats i = measureInterference(*fresh, reader2);

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s streams=%zu hash=%016llx misp=%llu snt=%.17g st=%.17g "
        "wb=%.17g trans=%llu/%llu/%llu interf=%llu/%llu/%llu/%llu",
        config.c_str(), analysis.streams().streamCount(),
        static_cast<unsigned long long>(hashStreams(analysis.streams())),
        static_cast<unsigned long long>(analysis.result().mispredictions),
        b.sntPercent, b.stPercent, b.wbPercent,
        static_cast<unsigned long long>(t.dominant),
        static_cast<unsigned long long>(t.nonDominant),
        static_cast<unsigned long long>(t.weak),
        static_cast<unsigned long long>(i.unaliasedLookups),
        static_cast<unsigned long long>(i.neutral),
        static_cast<unsigned long long>(i.destructive),
        static_cast<unsigned long long>(i.constructive));
    return line;
}

void
expectPinned(const std::string &benchmark,
             const std::vector<std::string> &expected)
{
    const MemoryTrace trace = first100k(benchmark);
    ASSERT_EQ(expected.size(), std::size(kConfigs));
    for (std::size_t c = 0; c < std::size(kConfigs); ++c)
        EXPECT_EQ(analysisLine(kConfigs[c], trace), expected[c]);
}

TEST(GoldenAnalysis, Gcc)
{
    expectPinned("gcc", {
        "bimodal:n=8 streams=14347 hash=9ada68ae97c52553 misp=29621"
        " snt=6.5990000000000002 st=5.3550000000000004"
        " wb=17.667000000000002 trans=10863/6227/7538"
        " interf=61966/23629/10966/3439",
        "gag:h=8 streams=28298 hash=b8a4f4500621357f misp=35690"
        " snt=16.41 st=11.577"
        " wb=7.7030000000000003 trans=20843/16190/9154"
        " interf=19706/53434/21740/5120",
        "gas:h=6,a=3 streams=24848 hash=4b666b872ee6ed26 misp=29751"
        " snt=11.659000000000001 st=8.7260000000000009"
        " wb=9.3659999999999997 trans=15263/11402/6508"
        " interf=41009/40369/14593/4029",
        "pag:h=6,l=7 streams=32694 hash=4fd729add2a9a0d7 misp=33193"
        " snt=12.824 st=9.9380000000000006"
        " wb=10.430999999999999 trans=21291/13539/14529"
        " interf=9066/64654/18483/7797",
        "pas:h=5,l=7,a=3 streams=28383 hash=4ce093f17f5e2796 misp=33394"
        " snt=11.949999999999999 st=9.8719999999999999"
        " wb=11.571999999999999 trans=19366/12651/12884"
        " interf=20399/54701/18278/6622",
        "gshare:n=10,h=4 streams=21255 hash=fbe56de393542037 misp=27902"
        " snt=9.9369999999999994 st=6.7510000000000003"
        " wb=11.214 trans=12600/9087/5702"
        " interf=54212/30722/11870/3196",
        "bimode:d=9 streams=31499 hash=a126af8f542f0c86 misp=25259"
        " snt=10.756 st=8.2460000000000004"
        " wb=6.2569999999999997 trans=14350/10688/5984"
        " interf=38726/45054/11169/5051",
        "agree:n=10,b=7 streams=31603 hash=cdd82d3a58500066 misp=32130"
        " snt=10.065 st=15.052"
        " wb=7.0129999999999999 trans=16838/13819/6448"
        " interf=36586/37190/19328/6896",
        "gskew:n=8 streams=14347 hash=85a0fc7d5fa3bec1 misp=29019"
        " snt=7.819 st=4.7489999999999997"
        " wb=16.451000000000001 trans=10863/6227/7538"
        " interf=61966/25892/8918/3224",
        "yags:c=10,n=8,t=7 streams=15756 hash=87c1937812923e35 misp=21599"
        " snt=5.4189999999999996 st=3.9300000000000002"
        " wb=12.25 trans=6374/4381/3770"
        " interf=76445/15240/5554/2761",
        "tournament:n=8 streams=21950 hash=df09a70f2da50f5f misp=28319"
        " snt=9.4410000000000007 st=7.2430000000000003"
        " wb=11.635 trans=11979/8502/6217"
        " interf=52647/31963/11430/3960",
        "filter:n=10,k=3,b=7 streams=30546 hash=6679721f582c8c0c misp=29633"
        " snt=13.021000000000001 st=9.0860000000000003"
        " wb=7.5259999999999998 trans=15568/12473/6099"
        " interf=39753/42308/13747/4192",
    });
}

TEST(GoldenAnalysis, Go)
{
    expectPinned("go", {
        "bimodal:n=8 streams=4711 hash=47b86b33c010924c misp=31588"
        " snt=3.972 st=3.7010000000000001"
        " wb=23.914999999999999 trans=9390/3562/8233"
        " interf=62764/23375/10328/3533",
        "gag:h=8 streams=20545 hash=a19cd5bfc8482aca misp=39626"
        " snt=15.890000000000001 st=12.039"
        " wb=11.696999999999999 trans=23253/16647/16345"
        " interf=9489/57341/26649/6521",
        "gas:h=6,a=3 streams=14778 hash=46549a6d1c6e79a6 misp=35197"
        " snt=11.725 st=9.2929999999999993"
        " wb=14.179 trans=19237/12164/13956"
        " interf=27013/47120/20421/5446",
        "pag:h=6,l=7 streams=26747 hash=4f1c0a269b7b1b41 misp=38749"
        " snt=11.372 st=10.269"
        " wb=17.108000000000001 trans=22582/12807/19913"
        " interf=5476/61569/23087/9868",
        "pas:h=5,l=7,a=3 streams=19878 hash=d3f676c6ad1acd21 misp=38083"
        " snt=10.057 st=8.8179999999999996"
        " wb=19.207999999999998 trans=20853/11402/19471"
        " interf=13686/55234/22196/8884",
        "gshare:n=10,h=4 streams=10203 hash=26cd97532a031b05 misp=29153"
        " snt=6.9790000000000001 st=5.8780000000000001"
        " wb=16.295999999999999 trans=14001/6983/9832"
        " interf=49535/34367/12296/3802",
        "bimode:d=9 streams=26652 hash=5f4f6e4fc29be853 misp=28522"
        " snt=10.372 st=8.7780000000000005"
        " wb=9.3719999999999999 trans=18162/11322/11991"
        " interf=25146/52880/14936/7038",
        "agree:n=10,b=7 streams=27158 hash=60dcd3eb132d8b26 misp=36923"
        " snt=9.9619999999999997 st=16.899000000000001"
        " wb=10.061999999999999 trans=19985/14082/12389"
        " interf=24556/43520/23838/8086",
        "gskew:n=8 streams=4711 hash=2e37b9fc2ced96d0 misp=32409"
        " snt=5.1619999999999999 st=3.4830000000000001"
        " wb=23.763999999999999 trans=9390/3562/8233"
        " interf=62764/23671/9914/3651",
        "yags:c=10,n=8,t=7 streams=6743 hash=9e65ec2f320667d8 misp=23535"
        " snt=2.762 st=3.5920000000000001"
        " wb=17.181000000000001 trans=5778/2012/4577"
        " interf=80788/12634/4392/2186",
        "tournament:n=8 streams=14229 hash=4fca48dfd760b4ae misp=31090"
        " snt=7.5350000000000001 st=6.1390000000000002"
        " wb=17.416 trans=12872/7164/9710"
        " interf=49056/33790/12432/4722",
        "filter:n=10,k=3,b=7 streams=26715 hash=76c7d1b233a0c5ad misp=34095"
        " snt=13.114000000000001 st=9.7240000000000002"
        " wb=11.257 trans=19116/13177/11941"
        " interf=27321/49405/17670/5604",
    });
}

} // namespace
} // namespace bpsim
