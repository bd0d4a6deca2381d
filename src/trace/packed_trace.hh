/**
 * @file
 * Structure-of-arrays compaction of a branch trace for fast replay.
 *
 * The replay kernel (sim/replay_kernel.hh) streams millions of
 * records per predictor configuration; the AoS BranchRecord layout
 * makes that loop memory-bound on padding (24 bytes per record, of
 * which the direction-prediction hot path reads 9 bits: the pc index
 * field and the outcome). PackedTrace compacts a MemoryTrace once
 * per benchmark — a contiguous pc array plus a taken bitmap, with
 * the non-conditional records the simulation loop would skip anyway
 * filtered out at pack time — and is then shared read-only across
 * every job that replays the benchmark.
 *
 * The arrays live behind a span: a PackedTrace either owns its
 * storage (packed from a MemoryTrace, or adopted vectors) or is a
 * zero-copy view over external storage — in practice an mmap'd PBT1
 * cache file (trace/trace_store.hh) kept alive by a shared_ptr. Both
 * cases present the identical read-only interface, so the replay
 * kernel never knows which it got.
 */

#ifndef BPSIM_TRACE_PACKED_TRACE_HH
#define BPSIM_TRACE_PACKED_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/memory_trace.hh"
#include "util/aligned.hh"

namespace bpsim
{

/* The kernel's block loop walks the bitmap 64 outcomes at a time and
 * the pc array as 8-byte lanes; both facts are load-bearing for the
 * word arithmetic in taken()/takenWord(). */
static_assert(sizeof(std::uint64_t) == 8 && alignof(std::uint64_t) == 8,
              "PackedTrace words must be 8-byte units");

/** Alignment of the pc array and taken bitmap — one cache line, so
 *  the replay kernels' streaming loads never straddle lines and the
 *  arrays are eligible for aligned vector loads. Owned storage gets
 *  it from TraceWordVector's allocator; PBT1 files place both arrays
 *  at multiple-of-64 offsets (trace/trace_store.cc), which mmap's
 *  page-aligned base turns into the same guarantee for views. */
constexpr std::size_t kTraceArrayAlign = 64;

/** Heap storage of PackedTrace's arrays: a uint64 vector whose
 *  allocation is cache-line aligned. */
using TraceWordVector =
    std::vector<std::uint64_t,
                AlignedAllocator<std::uint64_t, kTraceArrayAlign>>;

static_assert(kTraceArrayAlign % alignof(std::uint64_t) == 0,
              "array alignment must preserve word alignment");

/** Read-only SoA view of the conditional records of a trace. */
class PackedTrace
{
  public:
    /** Outcomes per bitmap word. */
    static constexpr std::size_t kWordBits = 64;

    PackedTrace() = default;

    /** Packs the conditional records of @p trace, in trace order. */
    explicit PackedTrace(const MemoryTrace &trace);

    /** Packs the next (up to) @p maxRecords conditional records of
     *  @p reader, from its current position, in trace order. */
    PackedTrace(TraceReader &reader, std::size_t maxRecords);

    /**
     * Adopts pre-built arrays (e.g. decoded from a PBT1 file on a
     * host that needed byte-swapping). @p words must hold
     * ceil(count / 64) entries with all padding bits past @p count
     * zero (takenCount() popcounts whole words).
     */
    PackedTrace(TraceWordVector pcs, TraceWordVector words,
                std::size_t count);

    /**
     * Zero-copy view: @p pcs (@p count entries) and @p words
     * (ceil(count / 64) entries, zero padding bits) point into
     * storage owned elsewhere; @p storage keeps that owner — an
     * mmap'd cache file — alive for the life of this trace.
     */
    PackedTrace(const std::uint64_t *pcs, const std::uint64_t *words,
                std::size_t count, std::shared_ptr<const void> storage);

    /* Moves are safe: vector moves transfer the heap allocation, so
     * the span pointers stay valid under their new owner. Copies are
     * disabled — traces are shared by reference, never duplicated. */
    PackedTrace(PackedTrace &&) noexcept = default;
    PackedTrace &operator=(PackedTrace &&) noexcept = default;
    PackedTrace(const PackedTrace &) = delete;
    PackedTrace &operator=(const PackedTrace &) = delete;

    /** Number of conditional records. */
    std::size_t size() const { return recordCount; }
    bool empty() const { return recordCount == 0; }

    /** pc of the i-th conditional record. */
    std::uint64_t pc(std::size_t i) const { return pcPtr[i]; }

    /** Outcome of the i-th conditional record. */
    bool
    taken(std::size_t i) const
    {
        return (wordPtr[i / kWordBits] >> (i % kWordBits)) & 1;
    }

    /** Bitmap word @p w: outcome of record 64w+j at bit j. Bits past
     *  size() are zero. */
    std::uint64_t takenWord(std::size_t w) const { return wordPtr[w]; }

    /** Number of bitmap words (== ceil(size() / 64)). */
    std::size_t wordCount() const { return wordCnt; }

    /** Contiguous pc array, size() entries. */
    const std::uint64_t *pcData() const { return pcPtr; }

    /** Contiguous taken bitmap, wordCount() entries. */
    const std::uint64_t *wordData() const { return wordPtr; }

    /** Total taken outcomes (bitmap population count). */
    std::uint64_t takenCount() const;

    /** True when this trace is a view over external storage (an
     *  mmap'd cache file) rather than owned arrays. */
    bool isView() const { return storage != nullptr; }

  private:
    /** Appends @p record to the owned arrays if it is conditional. */
    void pack(const BranchRecord &record);

    /** Trims the owned arrays and points the span at them. */
    void seal();

    /** Owned storage (kTraceArrayAlign-aligned); empty in view mode. */
    TraceWordVector ownedPcs;
    /** One bit per record, LSB-first within each word. */
    TraceWordVector ownedWords;
    /** Keeps external storage alive in view mode; null when owned. */
    std::shared_ptr<const void> storage;

    const std::uint64_t *pcPtr = nullptr;
    const std::uint64_t *wordPtr = nullptr;
    std::size_t recordCount = 0;
    std::size_t wordCnt = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_PACKED_TRACE_HH
