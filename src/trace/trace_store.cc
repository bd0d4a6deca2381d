#include "trace/trace_store.hh"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "trace/binary_io.hh"
#include "trace/codec.hh"
#include "trace/mmap_file.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

constexpr char kPackedMagic[4] = {'P', 'B', 'T', '1'};
/** Version 3 checksums the payload word-wise (packedChecksum())
 *  instead of byte-serial FNV-1a; version 2 added the aligned bitmap
 *  offset (see bitmapOffsetFor). Older files are rejected and simply
 *  regenerated on the next store. */
constexpr std::uint32_t kPackedVersion = 3;
constexpr std::size_t kPackedHeaderSize = 64;

/* The pc array starts right after the header; its mmap'd alignment
 * is the header size. */
static_assert(kPackedHeaderSize % kTraceArrayAlign == 0,
              "PBT1 pc array must start cache-line aligned");

/** File offset of the taken bitmap for a @p count record trace: the
 *  pc array end, rounded up to the next kTraceArrayAlign boundary
 *  (the gap is zero bytes, excluded from the checksum). */
std::uint64_t
bitmapOffsetFor(std::uint64_t count)
{
    return (kPackedHeaderSize + 8 * count + kTraceArrayAlign - 1) /
           kTraceArrayAlign * kTraceArrayAlign;
}

constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return text;
}

/** Writes @p count words to @p out as little-endian bytes. */
bool
writeWordsLe(std::ofstream &out, const std::uint64_t *words,
             std::size_t count)
{
    if (count == 0)
        return static_cast<bool>(out);
    if constexpr (kLittleEndian) {
        out.write(reinterpret_cast<const char *>(words),
                  static_cast<std::streamsize>(count * 8));
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            std::uint8_t bytes[8];
            putLe64(bytes, words[i]);
            out.write(reinterpret_cast<const char *>(bytes), 8);
        }
    }
    return static_cast<bool>(out);
}

/**
 * A temp name next to @p path that no other writer uses: the pid
 * tells processes apart and a process-wide counter tells this
 * process's writers apart, so concurrent writers of one key never
 * share an inode and the rename commits one writer's whole file.
 */
std::string
tempPathFor(const std::string &path)
{
    static std::atomic<std::uint64_t> writers{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(writers.fetch_add(1, std::memory_order_relaxed));
}

/** Replaces @p path atomically with the temp file @p tmp. */
bool
commitFile(const std::string &tmp, const std::string &path,
           std::string &why)
{
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        why = "cannot rename '" + tmp + "' to '" + path +
              "': " + ec.message();
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

TraceStore::TraceStore(std::string directory) : dir(std::move(directory))
{
    // Creation failures are not fatal: loads just miss and stores
    // report their open error.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        BPSIM_WARN("cannot create trace store directory '" << dir
                   << "': " << ec.message());
}

std::string
TraceStore::stemFor(const std::string &name, std::uint64_t fingerprint)
{
    std::string stem;
    stem.reserve(name.size() + 17);
    for (const char c : name) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '_' || c == '-';
        stem.push_back(safe ? c : '_');
    }
    if (stem.empty())
        stem = "trace";
    return stem + "-" + fingerprintHex(fingerprint);
}

std::string
TraceStore::pathFor(const std::string &name, std::uint64_t fingerprint,
                    const std::string &extension) const
{
    return dir + "/" + stemFor(name, fingerprint) + extension;
}

StoreStatus
TraceStore::loadTrace(const std::string &name, std::uint64_t fingerprint,
                      std::uint64_t expectedRecords, MemoryTrace &out,
                      std::string &why) const
{
    const std::string path = pathFor(name, fingerprint, ".bbt1");
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        why = "no cached trace at '" + path + "'";
        return StoreStatus::Missing;
    }
    why = tryReadBinaryTrace(path, out);
    if (!why.empty()) {
        out.clear();
        return StoreStatus::Invalid;
    }
    if (out.size() != expectedRecords) {
        why = "'" + path + "' holds " + std::to_string(out.size()) +
              " records, expected " + std::to_string(expectedRecords);
        out.clear();
        return StoreStatus::Invalid;
    }
    return StoreStatus::Loaded;
}

bool
TraceStore::storeTrace(const std::string &name, std::uint64_t fingerprint,
                       const MemoryTrace &trace, std::string &why) const
{
    const std::string path = pathFor(name, fingerprint, ".bbt1");
    const std::string tmp = tempPathFor(path);
    {
        // BinaryTraceWriter is fatal on open failure, so probe first;
        // a store that cannot write is a warning, not a death.
        std::ofstream probe(tmp, std::ios::binary | std::ios::trunc);
        if (!probe) {
            why = "cannot open '" + tmp + "' for writing";
            return false;
        }
    }
    BinaryTraceWriter writer(tmp);
    auto reader = trace.reader();
    BranchRecord record;
    while (reader.next(record))
        writer.append(record);
    writer.finish();
    return commitFile(tmp, path, why);
}

StoreStatus
TraceStore::loadPacked(const std::string &name, std::uint64_t fingerprint,
                       PackedTrace &out, std::string &why) const
{
    const std::string path = pathFor(name, fingerprint, ".pbt1");
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        why = "no cached packed trace at '" + path + "'";
        return StoreStatus::Missing;
    }

    std::string map_error;
    const std::shared_ptr<const MmapFile> file =
        MmapFile::open(path, map_error);
    if (!file) {
        why = map_error;
        return StoreStatus::Invalid;
    }
    if (file->size() < kPackedHeaderSize) {
        why = "'" + path + "' is too small to be a PBT1 trace";
        return StoreStatus::Invalid;
    }
    const std::uint8_t *base = file->data();
    if (std::memcmp(base, kPackedMagic, 4) != 0) {
        why = "'" + path + "' is not a PBT1 trace (bad magic)";
        return StoreStatus::Invalid;
    }
    const std::uint32_t version = getLe32(base + 4);
    if (version != kPackedVersion) {
        why = "'" + path + "': unsupported PBT1 version " +
              std::to_string(version);
        return StoreStatus::Invalid;
    }
    const std::uint64_t count = getLe64(base + 8);
    const std::uint64_t file_fingerprint = getLe64(base + 16);
    if (file_fingerprint != fingerprint) {
        why = "'" + path + "': fingerprint " +
              fingerprintHex(file_fingerprint) +
              " does not match expected " + fingerprintHex(fingerprint);
        return StoreStatus::Invalid;
    }
    // Bound the count by the file before any arithmetic on it: a
    // hostile count near 2^64 would wrap the word and offset sums
    // below back into range and send the checksum past the mapping.
    if (count > (file->size() - kPackedHeaderSize) / 8) {
        why = "'" + path + "' is " + std::to_string(file->size()) +
              " bytes; " + std::to_string(count) +
              " records need more";
        return StoreStatus::Invalid;
    }
    const std::uint64_t words =
        (count + PackedTrace::kWordBits - 1) / PackedTrace::kWordBits;
    const std::uint64_t bitmap_offset = bitmapOffsetFor(count);
    const std::uint64_t expected_size = bitmap_offset + 8 * words;
    if (file->size() != expected_size) {
        why = "'" + path + "' is " + std::to_string(file->size()) +
              " bytes; " + std::to_string(count) + " records need " +
              std::to_string(expected_size);
        return StoreStatus::Invalid;
    }

    const std::uint8_t *pc_bytes = base + kPackedHeaderSize;
    const std::uint8_t *bitmap_bytes = base + bitmap_offset;
    // On a little-endian host the file's word image is the array; a
    // big-endian host decodes into owned arrays first.
    TraceWordVector owned_pcs, owned_bitmap;
    const std::uint64_t *pcs =
        reinterpret_cast<const std::uint64_t *>(pc_bytes);
    const std::uint64_t *bitmap =
        reinterpret_cast<const std::uint64_t *>(bitmap_bytes);
    if constexpr (!kLittleEndian) {
        owned_pcs.resize(static_cast<std::size_t>(count));
        owned_bitmap.resize(static_cast<std::size_t>(words));
        for (std::uint64_t i = 0; i < count; ++i)
            owned_pcs[i] = getLe64(pc_bytes + 8 * i);
        for (std::uint64_t w = 0; w < words; ++w)
            owned_bitmap[w] = getLe64(bitmap_bytes + 8 * w);
        pcs = owned_pcs.data();
        bitmap = owned_bitmap.data();
    }
    if (packedChecksum(pcs, static_cast<std::size_t>(count), bitmap,
                       static_cast<std::size_t>(words)) !=
        getLe64(base + 24)) {
        why = "'" + path + "': checksum mismatch, file corrupt";
        return StoreStatus::Invalid;
    }
    // Padding bits past the last record must be zero or the
    // popcount-based takenCount() would drift.
    if (count % PackedTrace::kWordBits != 0 &&
        (bitmap[words - 1] >> (count % PackedTrace::kWordBits)) != 0) {
        why = "'" + path + "': nonzero bitmap padding bits";
        return StoreStatus::Invalid;
    }

    if constexpr (kLittleEndian)
        out = PackedTrace(pcs, bitmap, static_cast<std::size_t>(count),
                          file);
    else
        out = PackedTrace(std::move(owned_pcs), std::move(owned_bitmap),
                          static_cast<std::size_t>(count));
    return StoreStatus::Loaded;
}

bool
TraceStore::storePacked(const std::string &name,
                        std::uint64_t fingerprint,
                        const PackedTrace &trace, std::string &why) const
{
    const std::string path = pathFor(name, fingerprint, ".pbt1");
    const std::string tmp = tempPathFor(path);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
        why = "cannot open '" + tmp + "' for writing";
        return false;
    }

    std::uint8_t header[kPackedHeaderSize] = {};
    std::memcpy(header, kPackedMagic, 4);
    putLe32(header + 4, kPackedVersion);
    putLe64(header + 8, trace.size());
    putLe64(header + 16, fingerprint);
    putLe64(header + 24,
            packedChecksum(trace.pcData(), trace.size(), trace.wordData(),
                           trace.wordCount()));
    out.write(reinterpret_cast<const char *>(header), kPackedHeaderSize);

    // Zero gap up to the bitmap's aligned offset (not checksummed —
    // the digest covers exactly the two arrays).
    const char pad[kTraceArrayAlign] = {};
    const std::uint64_t pad_bytes =
        bitmapOffsetFor(trace.size()) -
        (kPackedHeaderSize + 8 * trace.size());

    if (!writeWordsLe(out, trace.pcData(), trace.size()) ||
        !out.write(pad, static_cast<std::streamsize>(pad_bytes)) ||
        !writeWordsLe(out, trace.wordData(), trace.wordCount())) {
        why = "I/O error writing '" + tmp + "'";
        out.close();
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
    out.flush();
    const bool ok = static_cast<bool>(out);
    out.close();
    if (!ok) {
        why = "I/O error finalizing '" + tmp + "'";
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return commitFile(tmp, path, why);
}

std::string
resolveTraceStoreDir(const std::string &flagValue)
{
    std::string dir = flagValue;
    if (dir.empty()) {
        const char *env = std::getenv("BPSIM_TRACE_CACHE");
        dir = env != nullptr ? env : ".bpsim-cache";
    }
    if (dir == "none" || dir == "off" || dir == "0")
        return "";
    return dir;
}

} // namespace bpsim
