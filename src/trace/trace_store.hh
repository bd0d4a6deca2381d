/**
 * @file
 * Persistent on-disk trace store.
 *
 * Generating a benchmark's synthetic trace costs far more than
 * replaying it through a predictor, and every campaign regenerates
 * the same 14 traces. The store persists each generated trace under a
 * cache directory in two sibling files keyed by benchmark name and
 * generator-spec fingerprint:
 *
 *   <name>-<fingerprint>.bbt1  the full record stream in the existing
 *                              BBT1 delta/varint format (binary_io.hh)
 *   <name>-<fingerprint>.pbt1  the PackedTrace SoA compaction in the
 *                              PBT1 raw little-endian format below
 *
 * PBT1 layout (all integers little-endian):
 *
 *   bytes 0..3    magic "PBT1"
 *   bytes 4..7    format version, u32 (currently 3)
 *   bytes 8..15   conditional record count, u64
 *   bytes 16..23  generator-spec fingerprint, u64
 *   bytes 24..31  packedChecksum() of the two arrays, u64
 *   bytes 32..63  reserved (zero)
 *   payload       pc array (count x u64), zero gap up to the next
 *                 64-byte file offset, then the taken bitmap
 *                 (ceil(count / 64) x u64, zero padding bits)
 *
 * The 64-byte header keeps the payload 8-byte aligned, so on a
 * little-endian host a warmed load mmaps the file and hands the
 * replay kernel a zero-copy PackedTrace view (trace/mmap_file.hh);
 * big-endian hosts decode into owned arrays instead.
 *
 * Every load re-validates the fallback ladder — file present, header
 * magic/version, fingerprint, size consistency (the count bounded by
 * the file size before any arithmetic on it), checksum, bitmap
 * padding — and any failure is reported as Missing/Invalid, never a
 * termination: the caller (sim/trace_cache.hh) regenerates and
 * rewrites. The store is
 * deliberately spec-agnostic: callers pass an opaque fingerprint
 * (TraceCache hashes the serialized WorkloadSpec plus a generator
 * version salt), which keeps this layer free of workload dependencies.
 */

#ifndef BPSIM_TRACE_TRACE_STORE_HH
#define BPSIM_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <string>

#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{

/** Outcome of a store lookup. */
enum class StoreStatus
{
    /** File present, validated, and loaded. */
    Loaded,
    /** No cached file for this key (a plain cold miss). */
    Missing,
    /** File present but failed validation; regenerate and rewrite. */
    Invalid,
};

/** Reads and writes cached traces under one directory. */
class TraceStore
{
  public:
    /** Uses (and lazily creates) @p directory. */
    explicit TraceStore(std::string directory);

    const std::string &directory() const { return dir; }

    /** "<name sanitized>-<16 hex fingerprint digits>" — the shared
     *  file stem of one cached trace's BBT1/PBT1/spec files. */
    static std::string stemFor(const std::string &name,
                               std::uint64_t fingerprint);

    /** Full path of the cached file with @p extension (".bbt1",
     *  ".pbt1", ".spec"). */
    std::string pathFor(const std::string &name, std::uint64_t fingerprint,
                        const std::string &extension) const;

    /**
     * Loads the cached full trace into @p out.
     *
     * @param expectedRecords the record count the generator would
     *        produce; a mismatching file is Invalid
     * @param why set to the validation failure on Invalid (and to a
     *        short note on Missing)
     */
    StoreStatus loadTrace(const std::string &name,
                          std::uint64_t fingerprint,
                          std::uint64_t expectedRecords, MemoryTrace &out,
                          std::string &why) const;

    /** Writes the BBT1 file (atomically, via a temp file + rename;
     *  the temp name is unique per writer, so concurrent writers of
     *  one key, in one process or several, each commit a whole file).
     *  Returns false and sets @p why on I/O failure; never fatal. */
    bool storeTrace(const std::string &name, std::uint64_t fingerprint,
                    const MemoryTrace &trace, std::string &why) const;

    /** Loads the cached PackedTrace; on a little-endian host the
     *  result is a zero-copy view over the mmap'd file. */
    StoreStatus loadPacked(const std::string &name,
                           std::uint64_t fingerprint, PackedTrace &out,
                           std::string &why) const;

    /** Writes the PBT1 file (atomically, like storeTrace()).
     *  Returns false and sets @p why on I/O failure; never fatal. */
    bool storePacked(const std::string &name, std::uint64_t fingerprint,
                     const PackedTrace &trace, std::string &why) const;

  private:
    std::string dir;
};

/**
 * Resolves a trace-store directory from a `--trace-cache` flag value:
 * empty falls back to $BPSIM_TRACE_CACHE, then ".bpsim-cache";
 * "none", "off" or "0" disable the store (returns ""). Every driver
 * that owns a TraceCache routes its flag through here so the
 * flag/env/default ladder behaves identically across binaries.
 */
std::string resolveTraceStoreDir(const std::string &flagValue);

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_STORE_HH
