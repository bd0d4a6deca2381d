#include "sim/replay.hh"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/registry.hh"
#include "sim/probe.hh"
#include "sim/replay_kernel.hh"
#include "trace/pc_index.hh"

namespace bpsim
{

namespace
{

/**
 * Typed leg of replayKernelBankAny(): casts the group, moves the
 * instances into a contiguous std::vector<Pred> bank, runs the
 * banked kernel, and moves the replayed state back into the callers'
 * objects. The cast pass completes before any move, so a mixed group
 * is rejected without disturbing anyone's state.
 *
 * When the run asks for per-branch detail the bank runs with a
 * PerBranchBankProbe: one PcIndex over the trace serves every lane,
 * each lane accumulates its own misprediction row, and the shared
 * executed/taken counts are joined in per lane afterwards.
 */
template <typename Pred>
bool
runBank(const std::vector<BranchPredictor *> &predictors,
        const PackedTrace &packed, const SimConfig &config,
        std::vector<SimResult> &results)
{
    std::vector<Pred *> typed;
    typed.reserve(predictors.size());
    for (BranchPredictor *predictor : predictors) {
        auto *p = dynamic_cast<Pred *>(predictor);
        if (p == nullptr)
            return false;
        typed.push_back(p);
    }

    std::vector<Pred> bank;
    bank.reserve(typed.size());
    for (Pred *p : typed)
        bank.push_back(std::move(*p));
    if (config.trackPerBranch) {
        const PcIndex index(packed);
        const std::size_t total = packed.size();
        const std::size_t warmup =
            std::min<std::size_t>(config.warmupBranches, total);
        const PcIndex::RangeCounts counts =
            index.countRange(packed, warmup, total);
        std::vector<std::uint64_t> misses(
            index.staticCount() * bank.size(), 0);
        const PerBranchBankProbe probe{index.idData(), misses.data(),
                                       index.staticCount()};
        results = replayKernelBank(bank, packed, config, probe);
        for (std::size_t l = 0; l < results.size(); ++l) {
            results[l].perBranch = assemblePerBranch(
                index, counts, misses.data() + l * index.staticCount());
        }
    } else {
        results = replayKernelBank(bank, packed, config);
    }
    for (std::size_t l = 0; l < typed.size(); ++l)
        *typed[l] = std::move(bank[l]);
    return true;
}

} // namespace

bool
replayKernelBankAny(const std::vector<BranchPredictor *> &predictors,
                    const PackedTrace &packed, const SimConfig &config,
                    std::vector<SimResult> &results)
{
    // The group's first instance selects the banked kernel's concrete
    // instantiation; a new registry entry is picked up here with no
    // further wiring.
    if (predictors.empty())
        return false;
    bool ran = false;
    visitFastPredictor(*predictors.front(), [&]<typename Pred>(Pred &) {
        ran = runBank<Pred>(predictors, packed, config, results);
    });
    return ran;
}

SimResult
simulateAny(BranchPredictor &predictor, TraceReader &trace,
            const PackedTrace *packed, const SimConfig &config)
{
    // A solo run is a one-lane bank, which replayKernelBank() hands
    // to the single kernel with undivided timing.
    std::vector<SimResult> results;
    if (packed != nullptr &&
        replayKernelBankAny({&predictor}, *packed, config, results))
        return std::move(results.front());
    return simulate(predictor, trace, config);
}

} // namespace bpsim
