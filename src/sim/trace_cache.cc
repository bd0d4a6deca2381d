#include "sim/trace_cache.hh"

#include <fstream>
#include <sstream>
#include <utility>

#include "trace/codec.hh"
#include "util/logging.hh"
#include "workload/generator.hh"
#include "workload/spec_io.hh"

namespace bpsim
{

namespace
{

/**
 * Salt mixed into every trace fingerprint. Bump when the generator's
 * output changes for an unchanged spec (new behaviour families,
 * different dispatch arithmetic, ...) so stale caches invalidate
 * themselves instead of silently serving old traces.
 */
constexpr unsigned kGeneratorVersion = 1;

} // namespace

std::uint64_t
workloadTraceFingerprint(const WorkloadSpec &spec)
{
    std::ostringstream os;
    writeWorkloadSpec(os, spec);
    os << "generator_version = " << kGeneratorVersion << "\n";
    const std::string text = os.str();
    Fnv1a hash;
    hash.update(reinterpret_cast<const std::uint8_t *>(text.data()),
                text.size());
    return hash.digest();
}

TraceCache::TraceCache(const std::string &storeDirectory)
{
    if (!storeDirectory.empty())
        store = std::make_unique<TraceStore>(storeDirectory);
}

TraceCache::Slot &
TraceCache::slotFor(const WorkloadSpec &spec)
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto [it, created] = slots.try_emplace(spec.name);
    Slot &slot = it->second;
    if (created) {
        slot.dynamicBranches = spec.dynamicBranches;
        if (store != nullptr)
            slot.fingerprint = workloadTraceFingerprint(spec);
    } else if (slot.dynamicBranches != spec.dynamicBranches) {
        BPSIM_PANIC("TraceCache: benchmark '" << spec.name
                    << "' requested with two different dynamic "
                    << "counts");
    }
    return slot;
}

void
TraceCache::publish(Slot &slot, std::shared_ptr<const MemoryTrace> trace,
                    std::size_t &counter)
{
    const std::lock_guard<std::mutex> lock(mu);
    counters.residentBytes += trace->size() * sizeof(BranchRecord);
    slot.trace = std::move(trace);
    ++counter;
}

void
TraceCache::publish(Slot &slot, std::shared_ptr<const PackedTrace> packed,
                    std::size_t &counter)
{
    const std::lock_guard<std::mutex> lock(mu);
    counters.residentBytes +=
        (packed->size() + packed->wordCount()) * sizeof(std::uint64_t);
    slot.packed = std::move(packed);
    ++counter;
}

void
TraceCache::count(std::size_t &counter)
{
    const std::lock_guard<std::mutex> lock(mu);
    ++counter;
}

void
TraceCache::rememberSpec(const WorkloadSpec &spec, const Slot &slot)
{
    // Human-readable provenance sidecar: exactly the text the
    // fingerprint hashed, so a stale cache can be diagnosed by eye.
    // Failures are harmless (the sidecar is never read back).
    const std::string path =
        store->pathFor(spec.name, slot.fingerprint, ".spec");
    std::ofstream out(path, std::ios::trunc);
    if (out)
        writeWorkloadSpec(out, spec);
}

void
TraceCache::materializeTrace(const WorkloadSpec &spec, Slot &slot)
{
    if (store != nullptr) {
        MemoryTrace loaded;
        std::string why;
        const StoreStatus status =
            store->loadTrace(spec.name, slot.fingerprint,
                             spec.dynamicBranches, loaded, why);
        if (status == StoreStatus::Loaded) {
            BPSIM_INFORM("loaded cached trace for " << spec.name << " ("
                         << loaded.size() << " branches)");
            publish(slot,
                    std::make_shared<const MemoryTrace>(std::move(loaded)),
                    counters.traceLoads);
            return;
        }
        if (status == StoreStatus::Invalid) {
            count(counters.invalidFiles);
            BPSIM_WARN("cached trace for " << spec.name
                       << " rejected (" << why << "); regenerating");
        }
    }

    BPSIM_INFORM("generating trace for " << spec.name << " ("
                 << spec.dynamicBranches << " branches)");
    auto trace =
        std::make_shared<const MemoryTrace>(generateWorkloadTrace(spec));
    publish(slot, trace, counters.generated);

    if (store != nullptr) {
        std::string why;
        if (!store->storeTrace(spec.name, slot.fingerprint, *trace, why))
            BPSIM_WARN("cannot persist trace for " << spec.name << ": "
                       << why);
        rememberSpec(spec, slot);
    }
}

void
TraceCache::materializePacked(const WorkloadSpec &spec, Slot &slot)
{
    if (store != nullptr) {
        PackedTrace loaded;
        std::string why;
        const StoreStatus status =
            store->loadPacked(spec.name, slot.fingerprint, loaded, why);
        if (status == StoreStatus::Loaded) {
            // Without call/return records every generated record is
            // conditional, so the packed count is pinned by the spec;
            // a disagreeing file is stale even if self-consistent.
            const bool count_ok =
                spec.emitCallsAndReturns ||
                loaded.size() == spec.dynamicBranches;
            if (count_ok) {
                BPSIM_INFORM("loaded cached packed trace for "
                             << spec.name << " (" << loaded.size()
                             << " conditionals, "
                             << (loaded.isView() ? "zero-copy" : "owned")
                             << ")");
                publish(slot,
                        std::make_shared<const PackedTrace>(
                            std::move(loaded)),
                        counters.packedLoads);
                return;
            }
            count(counters.invalidFiles);
            BPSIM_WARN("cached packed trace for " << spec.name
                       << " holds " << loaded.size()
                       << " records, expected " << spec.dynamicBranches
                       << "; rebuilding");
        } else if (status == StoreStatus::Invalid) {
            count(counters.invalidFiles);
            BPSIM_WARN("cached packed trace for " << spec.name
                       << " rejected (" << why << "); rebuilding");
        }
    }

    auto packed = std::make_shared<const PackedTrace>(*handleFor(spec));
    publish(slot, packed, counters.packedBuilt);

    if (store != nullptr) {
        std::string why;
        if (!store->storePacked(spec.name, slot.fingerprint, *packed, why))
            BPSIM_WARN("cannot persist packed trace for " << spec.name
                       << ": " << why);
    }
}

TraceHandle
TraceCache::handleFor(const WorkloadSpec &spec)
{
    Slot &slot = slotFor(spec);
    std::call_once(slot.traceOnce, [&] { materializeTrace(spec, slot); });
    return TraceHandle(slot.trace);
}

PackedTraceHandle
TraceCache::packedHandleFor(const WorkloadSpec &spec)
{
    Slot &slot = slotFor(spec);
    std::call_once(slot.packedOnce, [&] { materializePacked(spec, slot); });
    return PackedTraceHandle(slot.packed);
}

bool
TraceCache::resident(const WorkloadSpec &spec) const
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = slots.find(spec.name);
    return it != slots.end() && it->second.trace != nullptr &&
           it->second.packed != nullptr;
}

std::size_t
TraceCache::generatedCount() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::size_t resident = 0;
    for (const auto &entry : slots)
        resident += entry.second.trace != nullptr ? 1 : 0;
    return resident;
}

TraceCache::Stats
TraceCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace bpsim
