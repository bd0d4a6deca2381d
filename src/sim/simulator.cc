#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "util/json.hh"

namespace bpsim
{

double
SimResult::mispredictionRate() const
{
    if (branches == 0)
        return 0.0;
    return 100.0 * static_cast<double>(mispredictions) /
           static_cast<double>(branches);
}

double
SimResult::counterKBytes() const
{
    return static_cast<double>(counterBits) / 8.0 / 1024.0;
}

double
SimResult::branchesPerSec() const
{
    if (wallNanos == 0)
        return 0.0;
    return static_cast<double>(branches) * 1e9 /
           static_cast<double>(wallNanos);
}

void
SimResult::toJson(std::ostream &os, bool withTiming) const
{
    os << "{\"benchmark\":" << jsonString(benchmark)
       << ",\"config\":" << jsonString(configText)
       << ",\"predictor\":" << jsonString(predictorName)
       << ",\"counterBits\":" << counterBits
       << ",\"storageBits\":" << storageBits
       << ",\"branches\":" << branches
       << ",\"mispredictions\":" << mispredictions
       << ",\"takenBranches\":" << takenBranches
       << ",\"mispredictionRate\":" << jsonNumber(mispredictionRate())
       << ",\"counterKBytes\":" << jsonNumber(counterKBytes());
    if (!perBranch.empty()) {
        os << ",\"perBranch\":[";
        for (std::size_t i = 0; i < perBranch.size(); ++i) {
            const PerBranchResult &b = perBranch[i];
            if (i != 0)
                os << ",";
            os << "{\"pc\":" << b.pc << ",\"executions\":" << b.executions
               << ",\"mispredictions\":" << b.mispredictions
               << ",\"takenCount\":" << b.takenCount << "}";
        }
        os << "]";
    }
    if (withTiming) {
        os << ",\"wallNanos\":" << wallNanos
           << ",\"branchesPerSec\":" << jsonNumber(branchesPerSec())
           << ",\"fusedLanes\":" << fusedLanes
           << ",\"kernelTier\":" << jsonString(kernelTierName(kernelTier));
    }
    os << "}";
}

SimResult
simulate(BranchPredictor &predictor, TraceReader &trace,
         const SimConfig &config)
{
    SimResult result;
    result.predictorName = predictor.name();
    result.counterBits = predictor.counterBits();
    result.storageBits = predictor.storageBits();

    std::unordered_map<std::uint64_t, PerBranchResult> per_branch;
    if (config.trackPerBranch) {
        // Static branch counts are unknown up front (TraceReader::size()
        // is the dynamic record count, when known at all); reserve a
        // capped estimate to avoid the worst of the rehashing.
        per_branch.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
            trace.size().value_or(0), std::uint64_t{1} << 16)));
    }

    trace.rewind();
    BranchRecord record;
    std::uint64_t seen = 0;
    const auto start = std::chrono::steady_clock::now();
    while (trace.next(record)) {
        if (!record.isConditional())
            continue;
        const bool prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        ++seen;
        if (seen <= config.warmupBranches)
            continue;

        ++result.branches;
        if (record.taken)
            ++result.takenBranches;
        const bool mispredicted = prediction != record.taken;
        if (mispredicted)
            ++result.mispredictions;
        if (config.trackPerBranch) {
            PerBranchResult &entry = per_branch[record.pc];
            if (entry.executions == 0)
                entry.pc = record.pc;
            ++entry.executions;
            if (record.taken)
                ++entry.takenCount;
            if (mispredicted)
                ++entry.mispredictions;
        }
    }
    result.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    if (config.trackPerBranch) {
        result.perBranch.reserve(per_branch.size());
        for (const auto &[pc, entry] : per_branch)
            result.perBranch.push_back(entry);
        std::sort(result.perBranch.begin(), result.perBranch.end(),
                  [](const PerBranchResult &a, const PerBranchResult &b) {
                      if (a.executions != b.executions)
                          return a.executions > b.executions;
                      return a.pc < b.pc;
                  });
    }
    return result;
}

} // namespace bpsim
