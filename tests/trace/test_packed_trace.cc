/** @file Tests for the SoA packed trace. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{
namespace
{

BranchRecord
makeRecord(std::uint64_t pc, bool taken,
           BranchType type = BranchType::Conditional)
{
    BranchRecord record;
    record.pc = pc;
    record.target = pc + 16;
    record.type = type;
    record.taken = taken;
    return record;
}

TEST(PackedTrace, EmptyTracePacksEmpty)
{
    MemoryTrace trace;
    const PackedTrace packed(trace);
    EXPECT_EQ(packed.size(), 0u);
    EXPECT_EQ(packed.wordCount(), 0u);
    EXPECT_EQ(packed.takenCount(), 0u);
}

TEST(PackedTrace, KeepsOnlyConditionals)
{
    MemoryTrace trace;
    trace.append(makeRecord(0x1000, true));
    trace.append(makeRecord(0x2000, true, BranchType::Unconditional));
    trace.append(makeRecord(0x3000, false));
    trace.append(makeRecord(0x4000, true, BranchType::Call));
    trace.append(makeRecord(0x5000, true, BranchType::Return));
    trace.append(makeRecord(0x6000, true));

    const PackedTrace packed(trace);
    ASSERT_EQ(packed.size(), 3u);
    EXPECT_EQ(packed.pc(0), 0x1000u);
    EXPECT_EQ(packed.pc(1), 0x3000u);
    EXPECT_EQ(packed.pc(2), 0x6000u);
    EXPECT_TRUE(packed.taken(0));
    EXPECT_FALSE(packed.taken(1));
    EXPECT_TRUE(packed.taken(2));
    EXPECT_EQ(packed.takenCount(), 2u);
}

TEST(PackedTrace, ReaderChunksConcatenateToTheWholePack)
{
    // 150 conditionals with a non-conditional after every third:
    // chunks of 64 continue where the last stopped and together
    // equal the whole trace's pack.
    MemoryTrace trace;
    for (std::uint64_t i = 0; i < 150; ++i) {
        trace.append(makeRecord(0x1000 + 4 * i, i % 3 == 0));
        if (i % 3 == 2)
            trace.append(makeRecord(0x9000, true, BranchType::Call));
    }
    const PackedTrace whole(trace);
    auto reader = trace.reader();
    std::size_t next = 0;
    for (const std::size_t expected : {64u, 64u, 22u, 0u}) {
        const PackedTrace chunk(reader, 64);
        ASSERT_EQ(chunk.size(), expected);
        for (std::size_t i = 0; i < chunk.size(); ++i, ++next) {
            EXPECT_EQ(chunk.pc(i), whole.pc(next));
            EXPECT_EQ(chunk.taken(i), whole.taken(next));
        }
    }
    EXPECT_EQ(next, whole.size());
}

TEST(PackedTrace, BitmapRoundTripsAcrossWordBoundaries)
{
    // 150 conditionals spans three 64-bit bitmap words; an
    // alternating pattern catches any bit-order mistake.
    MemoryTrace trace;
    const std::size_t count = 150;
    for (std::size_t i = 0; i < count; ++i)
        trace.append(makeRecord(0x1000 + 4 * i, i % 2 == 0));

    const PackedTrace packed(trace);
    ASSERT_EQ(packed.size(), count);
    EXPECT_EQ(packed.wordCount(), 3u);
    std::uint64_t taken = 0;
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(packed.taken(i), i % 2 == 0) << "bit " << i;
        EXPECT_EQ(packed.pc(i), 0x1000 + 4 * i);
        taken += packed.taken(i) ? 1 : 0;
    }
    EXPECT_EQ(packed.takenCount(), taken);
}

TEST(PackedTrace, TakenWordsMatchPerBitView)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < 100; ++i)
        trace.append(makeRecord(0x1000 + 4 * i, (i * 7) % 3 == 0));

    const PackedTrace packed(trace);
    ASSERT_EQ(packed.wordCount(), 2u);
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const std::uint64_t word =
            packed.takenWord(i / PackedTrace::kWordBits);
        const bool bit = (word >> (i % PackedTrace::kWordBits)) & 1;
        EXPECT_EQ(bit, packed.taken(i)) << "bit " << i;
    }
    // Bits beyond size() in the last word stay zero (the packer never
    // sets them), so popcount-based takenCount() is exact.
    const std::uint64_t last = packed.takenWord(1);
    for (unsigned bit = 100 % 64; bit < 64; ++bit)
        EXPECT_EQ((last >> bit) & 1, 0u) << "padding bit " << bit;
}

TEST(PackedTrace, PcDataIsContiguous)
{
    MemoryTrace trace;
    trace.append(makeRecord(0x10, true));
    trace.append(makeRecord(0x20, false));
    const PackedTrace packed(trace);
    const std::uint64_t *pcs = packed.pcData();
    ASSERT_NE(pcs, nullptr);
    EXPECT_EQ(pcs[0], 0x10u);
    EXPECT_EQ(pcs[1], 0x20u);
}

TEST(PackedTrace, AllNonConditionalPacksEmpty)
{
    MemoryTrace trace;
    trace.append(makeRecord(0x10, true, BranchType::Unconditional));
    trace.append(makeRecord(0x20, true, BranchType::IndirectJump));
    const PackedTrace packed(trace);
    EXPECT_EQ(packed.size(), 0u);
    EXPECT_EQ(packed.wordCount(), 0u);
}

TEST(PackedTrace, OwnedArraysAreCacheLineAligned)
{
    // The vectorized replay kernels stream both arrays; the aligned
    // allocator must hand them out on kTraceArrayAlign boundaries.
    MemoryTrace trace;
    for (std::size_t i = 0; i < 150; ++i)
        trace.append(makeRecord(0x1000 + 4 * i, i % 2 == 0));
    const PackedTrace packed(trace);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed.pcData()) %
                  kTraceArrayAlign,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed.wordData()) %
                  kTraceArrayAlign,
              0u);

    const PackedTrace adopted(TraceWordVector{0x10, 0x20, 0x30},
                              TraceWordVector{0b101}, 3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(adopted.pcData()) %
                  kTraceArrayAlign,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(adopted.wordData()) %
                  kTraceArrayAlign,
              0u);
}

TEST(PackedTrace, AdoptedVectorsBehaveLikePacked)
{
    TraceWordVector pcs = {0x10, 0x20, 0x30};
    TraceWordVector words = {0b101};
    const PackedTrace packed(std::move(pcs), std::move(words), 3);
    ASSERT_EQ(packed.size(), 3u);
    EXPECT_FALSE(packed.isView());
    EXPECT_EQ(packed.pc(1), 0x20u);
    EXPECT_TRUE(packed.taken(0));
    EXPECT_FALSE(packed.taken(1));
    EXPECT_TRUE(packed.taken(2));
    EXPECT_EQ(packed.takenCount(), 2u);
}

TEST(PackedTrace, ViewSharesExternalStorage)
{
    // The view ctor's contract: pointers stay valid exactly as long
    // as the storage handle lives. Model the mmap case with a
    // heap-allocated arena.
    auto arena = std::make_shared<std::vector<std::uint64_t>>(
        std::vector<std::uint64_t>{0x100, 0x200, 0b10});
    const std::uint64_t *pcs = arena->data();
    const std::uint64_t *words = arena->data() + 2;

    PackedTrace view(pcs, words, 2, arena);
    arena.reset(); // the view must keep the arena alive on its own
    ASSERT_EQ(view.size(), 2u);
    EXPECT_TRUE(view.isView());
    EXPECT_EQ(view.pc(0), 0x100u);
    EXPECT_EQ(view.pc(1), 0x200u);
    EXPECT_FALSE(view.taken(0));
    EXPECT_TRUE(view.taken(1));
    EXPECT_EQ(view.pcData(), pcs);
    EXPECT_EQ(view.wordData(), words);
}

TEST(PackedTrace, MoveKeepsSpansValid)
{
    MemoryTrace trace;
    for (std::size_t i = 0; i < 10; ++i)
        trace.append(makeRecord(0x1000 + 8 * i, i % 2 == 0));
    PackedTrace packed(trace);
    const std::uint64_t *pcs_before = packed.pcData();

    const PackedTrace moved = std::move(packed);
    EXPECT_EQ(moved.pcData(), pcs_before);
    ASSERT_EQ(moved.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(moved.pc(i), 0x1000 + 8 * i);
        EXPECT_EQ(moved.taken(i), i % 2 == 0);
    }
}

TEST(PackedTraceDeath, AdoptedSizeMismatchPanics)
{
    TraceWordVector pcs = {0x10, 0x20};
    TraceWordVector words = {};
    EXPECT_DEATH(PackedTrace(std::move(pcs), std::move(words), 2),
                 "do not fit");
}

} // namespace
} // namespace bpsim
