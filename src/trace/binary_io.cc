#include "trace/binary_io.hh"

#include <algorithm>
#include <cstring>

#include "trace/mmap_file.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

constexpr char kMagic[4] = {'B', 'B', 'T', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kFlushThreshold = 1 << 20;
/** Every record holds three varints of at least one byte each. */
constexpr std::size_t kMinRecordBytes = 3;

/*
 * The open/decode steps below report failures instead of terminating
 * so both surfaces share them: BinaryTraceReader keeps the fatal()
 * contract for command-line users, tryReadBinaryTrace() reports the
 * same errors non-fatally for the trace store's
 * regenerate-on-corruption ladder. Error strings are built only once
 * something has failed.
 */

/** A mapped BBT1 file whose header passed validation. */
struct Payload
{
    std::shared_ptr<const MmapFile> file;
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    /** The header's record count; untrusted until decoded. */
    std::uint64_t count = 0;
    /** The trailer's checksum of the payload bytes. */
    std::uint64_t checksum = 0;
};

/** Maps @p path and validates its header; the payload checksum is
 *  the caller's to verify. "" on success. */
std::string
openPayload(const std::string &path, Payload &out)
{
    std::string map_error;
    out.file = MmapFile::open(path, map_error);
    if (!out.file)
        return map_error;
    if (out.file->size() < kHeaderSize + 8)
        return "'" + path + "' is too small to be a BBT1 trace";
    const std::uint8_t *header = out.file->data();
    if (std::memcmp(header, kMagic, 4) != 0)
        return "'" + path + "' is not a BBT1 trace (bad magic)";
    const std::uint32_t version = getLe32(header + 4);
    if (version != kVersion)
        return "'" + path + "': unsupported BBT1 version " +
               std::to_string(version);
    out.count = getLe64(header + 8);
    out.data = header + kHeaderSize;
    out.size = out.file->size() - kHeaderSize - 8;
    out.checksum = getLe64(out.data + out.size);
    return "";
}

std::string
checksumMismatch(const std::string &path)
{
    return "'" + path + "': checksum mismatch, file corrupt";
}

/** Why decodeRecord() stopped. */
enum class DecodeStatus
{
    Ok,
    Truncated,
    BadType,
};

/** Decodes the record at @p offset, advancing past it: the one copy
 *  of the BBT1 record arithmetic, shared by the streaming reader and
 *  the one-pass load. */
inline DecodeStatus
decodeRecord(const std::uint8_t *payload, std::size_t size,
             std::size_t &offset, std::uint64_t &previousPc,
             BranchRecord &record)
{
    std::uint64_t flags, pc_delta, target_delta;
    if (!getVarint(payload, size, offset, flags) ||
        !getVarint(payload, size, offset, pc_delta) ||
        !getVarint(payload, size, offset, target_delta))
        return DecodeStatus::Truncated;
    const std::uint64_t type_bits = (flags >> 1) & 0x7;
    if (type_bits > static_cast<std::uint64_t>(BranchType::IndirectJump))
        return DecodeStatus::BadType;
    record.taken = flags & 1;
    record.type = static_cast<BranchType>(type_bits);
    record.pc =
        previousPc + static_cast<std::uint64_t>(zigzagDecode(pc_delta));
    record.target =
        record.pc + static_cast<std::uint64_t>(zigzagDecode(target_delta));
    previousPc = record.pc;
    return DecodeStatus::Ok;
}

/** The error for record @p produced, which starts at @p recordStart
 *  and failed to decode with @p status. */
std::string
decodeError(DecodeStatus status, const std::uint8_t *payload,
            std::size_t size, std::size_t recordStart,
            std::uint64_t produced)
{
    if (status == DecodeStatus::Truncated)
        return "BBT1 payload ended early at record " +
               std::to_string(produced);
    std::uint64_t flags = 0;
    getVarint(payload, size, recordStart, flags);
    return "BBT1 record " + std::to_string(produced) +
           " has invalid type " + std::to_string((flags >> 1) & 0x7);
}

/** The trailing-garbage check: after the declared record count, the
 *  payload must be fully consumed; "" on success. */
std::string
checkFullyConsumed(std::size_t size, std::size_t offset,
                   std::uint64_t count)
{
    if (offset == size)
        return "";
    return "BBT1 payload has " + std::to_string(size - offset) +
           " trailing byte(s) after the declared " +
           std::to_string(count) + " record(s)";
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(const std::string &path)
    : path(path), file(path, std::ios::binary | std::ios::trunc)
{
    if (!file)
        BPSIM_FATAL("cannot open trace file '" << path << "' for writing");
    std::uint8_t header[kHeaderSize] = {};
    std::memcpy(header, kMagic, 4);
    putLe32(header + 4, kVersion);
    // Count (bytes 8..15) is patched in finish().
    file.write(reinterpret_cast<const char *>(header), kHeaderSize);
}

BinaryTraceWriter::~BinaryTraceWriter()
{
    if (!finished)
        BPSIM_WARN("BinaryTraceWriter for '" << path
                   << "' destroyed without finish(); file is truncated");
}

void
BinaryTraceWriter::append(const BranchRecord &record)
{
    if (finished)
        BPSIM_PANIC("append() after finish()");
    const std::uint64_t flags =
        (static_cast<std::uint64_t>(record.type) << 1) |
        (record.taken ? 1 : 0);
    putVarint(buffer, flags);
    putVarint(buffer, zigzagEncode(static_cast<std::int64_t>(
        record.pc - previousPc)));
    putVarint(buffer, zigzagEncode(static_cast<std::int64_t>(
        record.target - record.pc)));
    previousPc = record.pc;
    ++count;
    if (buffer.size() >= kFlushThreshold)
        flushBuffer();
}

void
BinaryTraceWriter::flushBuffer()
{
    if (buffer.empty())
        return;
    checksum.update(buffer.data(), buffer.size());
    file.write(reinterpret_cast<const char *>(buffer.data()),
               static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
}

void
BinaryTraceWriter::finish()
{
    if (finished)
        return;
    flushBuffer();
    std::uint8_t trailer[8];
    putLe64(trailer, checksum.digest());
    file.write(reinterpret_cast<const char *>(trailer), 8);
    file.seekp(8);
    std::uint8_t count_bytes[8];
    putLe64(count_bytes, count);
    file.write(reinterpret_cast<const char *>(count_bytes), 8);
    file.flush();
    if (!file)
        BPSIM_FATAL("I/O error while finalizing trace file '" << path << "'");
    file.close();
    finished = true;
}

BinaryTraceReader::BinaryTraceReader(const std::string &path)
{
    Payload in;
    const std::string error = openPayload(path, in);
    if (!error.empty())
        BPSIM_FATAL(error);
    Fnv1a checksum;
    checksum.update(in.data, in.size);
    if (checksum.digest() != in.checksum)
        BPSIM_FATAL(checksumMismatch(path));
    file = std::move(in.file);
    payload = in.data;
    payloadSize = in.size;
    count = in.count;
    // An empty trace has no last record to trigger the lazy check in
    // next(), so reject trailing bytes here.
    if (count == 0 && payloadSize != 0)
        BPSIM_FATAL("'" << path << "': "
                    << checkFullyConsumed(payloadSize, 0, count));
}

bool
BinaryTraceReader::next(BranchRecord &record)
{
    if (produced >= count)
        return false;
    const std::size_t start = offset;
    const DecodeStatus status =
        decodeRecord(payload, payloadSize, offset, previousPc, record);
    if (status != DecodeStatus::Ok)
        BPSIM_FATAL(
            decodeError(status, payload, payloadSize, start, produced));
    ++produced;
    if (produced == count) {
        // Exactly count records must consume the whole payload; extra
        // bytes mean the count field and the payload disagree.
        const std::string trailing =
            checkFullyConsumed(payloadSize, offset, count);
        if (!trailing.empty())
            BPSIM_FATAL(trailing);
    }
    return true;
}

void
BinaryTraceReader::rewind()
{
    produced = 0;
    offset = 0;
    previousPc = 0;
}

std::uint64_t
writeBinaryTrace(TraceReader &reader, const std::string &path)
{
    BinaryTraceWriter writer(path);
    BranchRecord record;
    while (reader.next(record))
        writer.append(record);
    writer.finish();
    return writer.recordsWritten();
}

void
readBinaryTrace(const std::string &path, TraceWriter &sink)
{
    BinaryTraceReader reader(path);
    BranchRecord record;
    while (reader.next(record))
        sink.append(record);
    sink.finish();
}

std::string
tryReadBinaryTrace(const std::string &path, MemoryTrace &out)
{
    Payload in;
    std::string error = openPayload(path, in);
    if (!error.empty())
        return error;

    // Reserve no more than the payload can hold: the header count is
    // not covered by the checksum.
    std::vector<BranchRecord> records;
    records.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(in.count, in.size / kMinRecordBytes)));

    // One pass: each record's bytes are checksummed as soon as they
    // decode, so the payload is read once.
    Fnv1a checksum;
    std::size_t offset = 0;
    std::uint64_t previous_pc = 0;
    DecodeStatus status = DecodeStatus::Ok;
    BranchRecord record;
    while (records.size() < in.count) {
        const std::size_t start = offset;
        status =
            decodeRecord(in.data, in.size, offset, previous_pc, record);
        if (status != DecodeStatus::Ok) {
            offset = start;
            break;
        }
        checksum.update(in.data + start, offset - start);
        records.push_back(record);
    }
    // A corrupt payload is reported as corrupt even where it also
    // fails to decode, so the checksum is finished first.
    checksum.update(in.data + offset, in.size - offset);
    if (checksum.digest() != in.checksum)
        return checksumMismatch(path);
    if (status != DecodeStatus::Ok)
        return "'" + path + "': " +
               decodeError(status, in.data, in.size, offset,
                           records.size());
    error = checkFullyConsumed(in.size, offset, in.count);
    if (!error.empty())
        return "'" + path + "': " + error;
    out = MemoryTrace(std::move(records));
    return "";
}

} // namespace bpsim
