#include "trace/packed_trace.hh"

#include <bit>
#include <utility>

#include "util/logging.hh"

namespace bpsim
{

void
PackedTrace::pack(const BranchRecord &record)
{
    if (!record.isConditional())
        return;
    const std::size_t i = ownedPcs.size();
    if (i % kWordBits == 0)
        ownedWords.push_back(0);
    if (record.taken)
        ownedWords[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
    ownedPcs.push_back(record.pc);
}

PackedTrace::PackedTrace(const MemoryTrace &trace)
{
    ownedPcs.reserve(trace.size());
    ownedWords.reserve(trace.size() / kWordBits + 1);
    for (const BranchRecord &record : trace.data())
        pack(record);
    seal();
}

PackedTrace::PackedTrace(TraceReader &reader, std::size_t maxRecords)
{
    ownedPcs.reserve(maxRecords);
    ownedWords.reserve(maxRecords / kWordBits + 1);
    BranchRecord record;
    while (ownedPcs.size() < maxRecords && reader.next(record))
        pack(record);
    seal();
}

void
PackedTrace::seal()
{
    ownedPcs.shrink_to_fit();
    ownedWords.shrink_to_fit();
    recordCount = ownedPcs.size();
    wordCnt = ownedWords.size();
    pcPtr = ownedPcs.data();
    wordPtr = ownedWords.data();
}

PackedTrace::PackedTrace(TraceWordVector pcs, TraceWordVector words,
                         std::size_t count)
    : ownedPcs(std::move(pcs)), ownedWords(std::move(words))
{
    if (ownedPcs.size() != count ||
        ownedWords.size() != (count + kWordBits - 1) / kWordBits)
        BPSIM_PANIC("PackedTrace: adopted arrays sized "
                    << ownedPcs.size() << "/" << ownedWords.size()
                    << " do not fit " << count << " records");
    recordCount = count;
    wordCnt = ownedWords.size();
    pcPtr = ownedPcs.data();
    wordPtr = ownedWords.data();
}

PackedTrace::PackedTrace(const std::uint64_t *pcs,
                         const std::uint64_t *words, std::size_t count,
                         std::shared_ptr<const void> storage)
    : storage(std::move(storage)), pcPtr(pcs), wordPtr(words),
      recordCount(count), wordCnt((count + kWordBits - 1) / kWordBits)
{
}

std::uint64_t
PackedTrace::takenCount() const
{
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < wordCnt; ++w)
        total += static_cast<std::uint64_t>(std::popcount(wordPtr[w]));
    return total;
}

} // namespace bpsim
