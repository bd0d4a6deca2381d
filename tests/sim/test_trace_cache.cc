/** @file Tests for the benchmark trace cache. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "sim/trace_cache.hh"
#include "trace/codec.hh"
#include "trace/trace_store.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
tinySpec(const std::string &name, std::uint64_t dynamic)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 100;
    spec.dynamicBranches = dynamic;
    spec.seed = 3;
    return spec;
}

TEST(TraceCache, GeneratesOnFirstUse)
{
    TraceCache cache;
    EXPECT_EQ(cache.generatedCount(), 0u);
    const MemoryTrace &trace = cache.traceFor(tinySpec("a", 5000));
    EXPECT_EQ(trace.size(), 5000u);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCache, ReturnsSameObjectOnRepeat)
{
    TraceCache cache;
    const MemoryTrace &first = cache.traceFor(tinySpec("a", 5000));
    const MemoryTrace &second = cache.traceFor(tinySpec("a", 5000));
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCache, DistinctBenchmarksDistinctTraces)
{
    TraceCache cache;
    const MemoryTrace &a = cache.traceFor(tinySpec("a", 5000));
    const MemoryTrace &b = cache.traceFor(tinySpec("b", 4000));
    EXPECT_NE(&a, &b);
    EXPECT_EQ(b.size(), 4000u);
    EXPECT_EQ(cache.generatedCount(), 2u);
}

TEST(TraceCacheDeath, ConflictingSpecsPanic)
{
    TraceCache cache;
    cache.traceFor(tinySpec("a", 5000));
    EXPECT_DEATH(cache.traceFor(tinySpec("a", 6000)),
                 "different dynamic counts");
}

/** A per-test store directory that cleans up after itself. */
class TempStoreDir
{
  public:
    explicit TempStoreDir(const std::string &name)
        : dirPath(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(dirPath);
    }

    ~TempStoreDir() { std::filesystem::remove_all(dirPath); }

    const std::string &path() const { return dirPath; }

  private:
    std::string dirPath;
};

TEST(TraceCache, EmptyDirectoryMeansMemoryOnly)
{
    TraceCache cache{std::string()};
    EXPECT_FALSE(cache.persistent());
    EXPECT_EQ(cache.traceFor(tinySpec("a", 3000)).size(), 3000u);
}

TEST(TraceCache, FingerprintTracksTheWholeSpec)
{
    const WorkloadSpec base = tinySpec("a", 5000);
    WorkloadSpec reseeded = base;
    reseeded.seed = 4;
    WorkloadSpec resized = base;
    resized.dynamicBranches = 6000;
    EXPECT_EQ(workloadTraceFingerprint(base),
              workloadTraceFingerprint(tinySpec("a", 5000)));
    EXPECT_NE(workloadTraceFingerprint(base),
              workloadTraceFingerprint(reseeded));
    EXPECT_NE(workloadTraceFingerprint(base),
              workloadTraceFingerprint(resized));
}

TEST(TraceCache, WarmRunLoadsBitIdenticalTracesWithoutGenerating)
{
    TempStoreDir dir("cache_warm");
    const WorkloadSpec spec = tinySpec("a", 5000);

    // Cold: generate, pack, and persist both forms.
    TraceCache cold(dir.path());
    ASSERT_TRUE(cold.persistent());
    const MemoryTrace &generated = cold.traceFor(spec);
    const PackedTrace &built = cold.packedFor(spec);
    EXPECT_EQ(cold.stats().generated, 1u);
    EXPECT_EQ(cold.stats().packedBuilt, 1u);

    // Warm: a fresh cache over the same directory must serve both
    // forms from disk, bit-identical, generating nothing.
    TraceCache warm(dir.path());
    const MemoryTrace &loaded = warm.traceFor(spec);
    EXPECT_EQ(warm.stats().generated, 0u);
    EXPECT_EQ(warm.stats().traceLoads, 1u);
    ASSERT_EQ(loaded.size(), generated.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        ASSERT_EQ(loaded[i], generated[i]) << "record " << i;

    const PackedTrace &packed = warm.packedFor(spec);
    EXPECT_EQ(warm.stats().packedLoads, 1u);
    EXPECT_EQ(warm.stats().packedBuilt, 0u);
    ASSERT_EQ(packed.size(), built.size());
    EXPECT_EQ(packed.takenCount(), built.takenCount());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        ASSERT_EQ(packed.pc(i), built.pc(i)) << "pc " << i;
        ASSERT_EQ(packed.taken(i), built.taken(i)) << "bit " << i;
    }
}

TEST(TraceCache, PackedLoadsStraightFromStoreWithoutFullTrace)
{
    TempStoreDir dir("cache_packed_only");
    const WorkloadSpec spec = tinySpec("a", 4000);
    {
        TraceCache cold(dir.path());
        cold.packedFor(spec);
    }
    // A warm cache asked only for the packed form must not touch
    // (or regenerate) the full trace.
    TraceCache warm(dir.path());
    const PackedTrace &packed = warm.packedFor(spec);
    EXPECT_EQ(packed.size(), 4000u);
    EXPECT_EQ(warm.stats().generated, 0u);
    EXPECT_EQ(warm.stats().traceLoads, 0u);
    EXPECT_EQ(warm.stats().packedLoads, 1u);
    EXPECT_EQ(warm.generatedCount(), 0u);
}

TEST(TraceCache, CorruptedStoreFilesRegenerateAndRewrite)
{
    TempStoreDir dir("cache_corrupt");
    const WorkloadSpec spec = tinySpec("a", 5000);
    MemoryTrace pristine;
    {
        TraceCache cold(dir.path());
        const MemoryTrace &trace = cold.traceFor(spec);
        for (std::size_t i = 0; i < trace.size(); ++i)
            pristine.append(trace[i]);
        cold.packedFor(spec);
    }

    // Flip one payload byte in each cached file.
    const TraceStore store(dir.path());
    const std::uint64_t fp = workloadTraceFingerprint(spec);
    for (const char *ext : {".bbt1", ".pbt1"}) {
        const std::string path = store.pathFor(spec.name, fp, ext);
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f) << path;
        char byte;
        f.seekg(80);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x04);
        f.seekp(80);
        f.write(&byte, 1);
    }

    // The corruption must be absorbed: regenerate, serve the right
    // data, count the rejections, and rewrite the files.
    TraceCache recovering(dir.path());
    const MemoryTrace &regenerated = recovering.traceFor(spec);
    recovering.packedFor(spec);
    EXPECT_EQ(recovering.stats().generated, 1u);
    EXPECT_GE(recovering.stats().invalidFiles, 1u);
    ASSERT_EQ(regenerated.size(), pristine.size());
    for (std::size_t i = 0; i < regenerated.size(); ++i)
        ASSERT_EQ(regenerated[i], pristine[i]) << "record " << i;

    TraceCache healed(dir.path());
    healed.traceFor(spec);
    healed.packedFor(spec);
    EXPECT_EQ(healed.stats().generated, 0u);
    EXPECT_EQ(healed.stats().invalidFiles, 0u);
    EXPECT_EQ(healed.stats().traceLoads, 1u);
    EXPECT_EQ(healed.stats().packedLoads, 1u);
}

/** Rewrites the PBT1 file at @p path as the version-2 format wrote
 *  it: same layout, byte-serial FNV-1a over the two arrays. */
void
downgradeToPbt1V2(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << path;
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GE(bytes.size(), 64u);
    const std::uint64_t count = getLe64(bytes.data() + 8);
    const std::size_t bitmap_offset = (64 + 8 * count + 63) / 64 * 64;
    Fnv1a checksum;
    checksum.update(bytes.data() + 64, 8 * count);
    checksum.update(bytes.data() + bitmap_offset,
                    bytes.size() - bitmap_offset);
    putLe32(bytes.data() + 4, 2);
    putLe64(bytes.data() + 24, checksum.digest());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceCache, PackedV2FileIsRejectedOnceAndRewrittenAsV3)
{
    TempStoreDir dir("cache_pbt_v2");
    const WorkloadSpec spec = tinySpec("a", 5000);
    {
        TraceCache cold(dir.path());
        cold.packedFor(spec);
    }
    const std::string path = TraceStore(dir.path()).pathFor(
        spec.name, workloadTraceFingerprint(spec), ".pbt1");
    downgradeToPbt1V2(path);

    ::testing::internal::CaptureStderr();
    {
        TraceCache upgrading(dir.path());
        upgrading.packedFor(spec);
        EXPECT_EQ(upgrading.stats().invalidFiles, 1u);
        EXPECT_EQ(upgrading.stats().packedBuilt, 1u);
        EXPECT_EQ(upgrading.stats().generated, 0u);
    }
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("unsupported PBT1 version 2"), std::string::npos)
        << log;

    std::uint8_t header[8] = {};
    {
        std::ifstream in(path, std::ios::binary);
        in.read(reinterpret_cast<char *>(header), sizeof(header));
    }
    EXPECT_EQ(getLe32(header + 4), 3u);

    TraceCache warm(dir.path());
    warm.packedFor(spec);
    EXPECT_EQ(warm.stats().invalidFiles, 0u);
    EXPECT_EQ(warm.stats().packedLoads, 1u);
    EXPECT_EQ(warm.stats().packedBuilt, 0u);
}

TEST(TraceCache, WritesSpecSidecarForDebugging)
{
    TempStoreDir dir("cache_sidecar");
    const WorkloadSpec spec = tinySpec("a", 3000);
    TraceCache cache(dir.path());
    cache.traceFor(spec);
    const TraceStore store(dir.path());
    const std::string path = store.pathFor(
        spec.name, workloadTraceFingerprint(spec), ".spec");
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("workload spec"), std::string::npos);
}

} // namespace
} // namespace bpsim
