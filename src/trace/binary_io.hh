/**
 * @file
 * The BBT1 on-disk branch-trace format.
 *
 * Layout:
 *   bytes 0..3    magic "BBT1"
 *   bytes 4..7    format version, little-endian u32 (currently 1)
 *   bytes 8..15   record count, little-endian u64
 *   bytes 16..23  reserved (zero)
 *   payload       per-record encoding (below)
 *   last 8 bytes  FNV-1a checksum of the payload, little-endian u64
 *
 * Each record is encoded as
 *   flags varint  bit 0 = taken, bits 1..3 = BranchType
 *   pc    varint  zigzag delta from the previous record's pc
 *   tgt   varint  zigzag delta from this record's pc
 *
 * Consecutive branch pcs are near each other and targets are near
 * their branches, so typical traces cost a few bytes per record.
 */

#ifndef BPSIM_TRACE_BINARY_IO_HH
#define BPSIM_TRACE_BINARY_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/codec.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_source.hh"

namespace bpsim
{

class MmapFile;

/** Streams records into a BBT1 file. */
class BinaryTraceWriter : public TraceWriter
{
  public:
    /** Opens @p path for writing; fatal() on failure. */
    explicit BinaryTraceWriter(const std::string &path);

    /** finish() must already have been called (checked). */
    ~BinaryTraceWriter() override;

    void append(const BranchRecord &record) override;

    /** Patches the header count and appends the checksum. */
    void finish() override;

    std::uint64_t recordsWritten() const { return count; }

  private:
    void flushBuffer();

    std::string path;
    std::ofstream file;
    std::vector<std::uint8_t> buffer;
    Fnv1a checksum;
    std::uint64_t count = 0;
    std::uint64_t previousPc = 0;
    bool finished = false;
};

/** Reads a mapped BBT1 file; the whole payload is checksummed at open
 *  time and records decode lazily. */
class BinaryTraceReader : public TraceReader
{
  public:
    /** Opens and validates @p path; fatal() on any format error. */
    explicit BinaryTraceReader(const std::string &path);

    bool next(BranchRecord &record) override;
    void rewind() override;
    std::optional<std::uint64_t> size() const override { return count; }

  private:
    /** Keeps the mapped payload alive. */
    std::shared_ptr<const MmapFile> file;
    const std::uint8_t *payload = nullptr;
    std::size_t payloadSize = 0;
    std::uint64_t count = 0;
    std::uint64_t produced = 0;
    std::size_t offset = 0;
    std::uint64_t previousPc = 0;
};

/** Convenience: writes an entire reader's contents to @p path. */
std::uint64_t writeBinaryTrace(TraceReader &reader, const std::string &path);

/** Convenience: loads an entire BBT1 file into memory. */
void readBinaryTrace(const std::string &path, TraceWriter &sink);

/**
 * Non-fatal variant of readBinaryTrace() for callers that treat a
 * bad file as recoverable (the trace store regenerates instead of
 * terminating). Returns "" on success, with @p out replaced by the
 * file's records; otherwise the validation or decode error, with
 * @p out untouched.
 *
 * Decodes in one pass over the mapped payload, checksumming each
 * record's bytes as it goes, straight into the record vector. A
 * corrupt payload reports "checksum mismatch" even when it also fails
 * to decode, as a checksum-first reader would.
 */
std::string tryReadBinaryTrace(const std::string &path,
                               MemoryTrace &out);

} // namespace bpsim

#endif // BPSIM_TRACE_BINARY_IO_HH
