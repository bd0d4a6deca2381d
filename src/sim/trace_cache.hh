/**
 * @file
 * Benchmark trace cache.
 *
 * The figure sweeps replay each benchmark's trace across dozens of
 * predictor configurations; the cache generates every workload once
 * and hands out readers over the shared in-memory traces.
 *
 * Optionally the cache is backed by a persistent on-disk store
 * (trace/trace_store.hh): generated traces are written out as
 * BBT1 + PBT1 files keyed by benchmark name and generator-spec
 * fingerprint, and later runs load them back — the packed form as a
 * zero-copy mmap view — instead of regenerating. Any validation
 * failure (stale fingerprint, wrong version or size, corrupt
 * payload) silently degrades to regenerate-and-rewrite.
 *
 * The cache is shared across threads: resolveTraces()
 * (campaign/campaign.hh) materializes missing traces concurrently,
 * and the service daemon resolves every session's requests through
 * one cache.
 */

#ifndef BPSIM_SIM_TRACE_CACHE_HH
#define BPSIM_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_handle.hh"
#include "trace/trace_store.hh"
#include "workload/workload_spec.hh"

namespace bpsim
{

/**
 * Fingerprint of everything that determines a spec's generated
 * trace: the full serialized WorkloadSpec plus a generator version
 * salt (bumped whenever the generator's output changes). Cached
 * files carry this fingerprint; a mismatch means the file was built
 * from a different workload and must be regenerated.
 */
std::uint64_t workloadTraceFingerprint(const WorkloadSpec &spec);

/**
 * Generates benchmark traces on demand and keeps them in memory.
 *
 * Thread-safe, with per-key single flight: each benchmark name owns
 * one slot whose two forms (record trace, packed trace) are each
 * materialized under their own std::once_flag. Concurrent callers of
 * one key wait for that key only; callers of other keys proceed. A
 * short mutex guards the slot map and the counters, and no lock is
 * held while a trace loads, generates, packs or writes.
 */
class TraceCache
{
  public:
    /** Memory-only cache (no persistence). */
    TraceCache() = default;

    /**
     * Cache backed by a persistent store at @p storeDirectory; an
     * empty directory means memory-only. Store failures are never
     * fatal — the cache falls back to generating.
     */
    explicit TraceCache(const std::string &storeDirectory);

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace for @p spec, generating it on first use. Keyed by
     * benchmark name; passing two different specs with the same name
     * is a caller error (checked by dynamic count).
     */
    const MemoryTrace &traceFor(const WorkloadSpec &spec)
    {
        return *handleFor(spec);
    }

    /**
     * The SoA compaction of the trace for @p spec, packing it on
     * first use (generating the trace too, if needed). The packed
     * form is what the devirtualized replay kernel streams; campaigns
     * share one per benchmark across all jobs. With a warm store this
     * is served straight from the mmap'd PBT1 file without touching
     * the full trace.
     */
    const PackedTrace &packedFor(const WorkloadSpec &spec)
    {
        return *packedHandleFor(spec);
    }

    /**
     * Shared-ownership handle to the trace of @p spec (generating it
     * like traceFor()). Jobs built on handles stay valid even if
     * they outlive the cache — the service daemon's submission path.
     */
    TraceHandle handleFor(const WorkloadSpec &spec);

    /** Shared-ownership handle to the packed trace of @p spec. */
    PackedTraceHandle packedHandleFor(const WorkloadSpec &spec);

    /** True when both forms of @p spec's trace are in memory, so
     *  the handle calls return without any trace work. */
    bool resident(const WorkloadSpec &spec) const;

    /** Number of full traces resident in memory. */
    std::size_t generatedCount() const;

    /** True when backed by a persistent store. */
    bool persistent() const { return store != nullptr; }

    /** Cache-flow counters, mostly for tests, --verbose logs and the
     *  daemon's stats event. */
    struct Stats
    {
        /** Traces generated from scratch. */
        std::size_t generated = 0;
        /** Full traces loaded from BBT1 files. */
        std::size_t traceLoads = 0;
        /** Packed traces loaded from PBT1 files. */
        std::size_t packedLoads = 0;
        /** Packed traces built from an in-memory trace. */
        std::size_t packedBuilt = 0;
        /** Cached files rejected by validation (then rewritten). */
        std::size_t invalidFiles = 0;
        /** Bytes of resident trace data: 24 per record of every full
         *  trace plus 8 per pc and bitmap word of every packed one. */
        std::size_t residentBytes = 0;
    };
    /** A snapshot of the counters. */
    Stats stats() const;

  private:
    /** One benchmark name. The once_flags make each form's first
     *  materialization single-flight; the pointers are published
     *  under @ref mu and never change afterwards. */
    struct Slot
    {
        std::uint64_t dynamicBranches = 0;
        /** Store key (0 when memory-only). */
        std::uint64_t fingerprint = 0;
        std::once_flag traceOnce;
        std::once_flag packedOnce;
        std::shared_ptr<const MemoryTrace> trace;
        std::shared_ptr<const PackedTrace> packed;
    };

    Slot &slotFor(const WorkloadSpec &spec);
    void materializeTrace(const WorkloadSpec &spec, Slot &slot);
    void materializePacked(const WorkloadSpec &spec, Slot &slot);
    void rememberSpec(const WorkloadSpec &spec, const Slot &slot);
    /** Under @ref mu: stores @p trace in @p slot and counts it in
     *  @p counter (a field of @ref counters). */
    void publish(Slot &slot, std::shared_ptr<const MemoryTrace> trace,
                 std::size_t &counter);
    void publish(Slot &slot, std::shared_ptr<const PackedTrace> packed,
                 std::size_t &counter);
    /** Adds one to @p counter (a field of @ref counters) under
     *  @ref mu. */
    void count(std::size_t &counter);

    std::unique_ptr<TraceStore> store;
    /** Guards @ref slots (the map, not the trace work) and
     *  @ref counters. Slots are never erased, so references into the
     *  map stay valid without it. */
    mutable std::mutex mu;
    std::map<std::string, Slot> slots;
    Stats counters;
};

} // namespace bpsim

#endif // BPSIM_SIM_TRACE_CACHE_HH
