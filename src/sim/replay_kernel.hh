/**
 * @file
 * The devirtualized batched replay kernel.
 *
 * replayKernel() is the hot loop of the project: it streams a
 * PackedTrace (contiguous pc array + taken bitmap, conditionals only)
 * through a *concrete* predictor type, so every step inlines instead
 * of going through the BranchPredictor vtable, and the taken bitmap
 * is loaded one 64-branch word at a time.
 * replayKernelBank() is its multi-configuration form: one trace pass
 * steps a contiguous bank of same-kind instances, which is how
 * campaign jobs sharing a trace are fused (campaign/campaign.cc).
 *
 * Bit-identity contract: for any predictor P and trace T,
 * replayKernel(P, pack(T)) and simulate(P, T) must produce identical
 * branches/mispredictions/takenBranches and leave P in the identical
 * state. Both loops run the same stepFast() per record — the virtual
 * step() is a thin wrapper over it — so warm-up records, whose
 * predictions are discarded, step exactly as measured ones do.
 *
 * tests/sim/test_replay.cc enforces the contract for every
 * factory-constructible spec.
 */

#ifndef BPSIM_SIM_REPLAY_KERNEL_HH
#define BPSIM_SIM_REPLAY_KERNEL_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/probe.hh"
#include "sim/simd/kernel_tier.hh"
#include "sim/simd/simd_bank.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{

/** Taken outcomes in trace positions [from, to) — the bitmap span's
 *  population count, lane-independent by definition. */
inline std::uint64_t
countTakenInRange(const PackedTrace &packed, std::size_t from,
                  std::size_t to)
{
    std::uint64_t taken = 0;
    for (std::size_t i = from; i < to;) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t word_end = std::min(
            to, (word_index + 1) * PackedTrace::kWordBits);
        const std::uint64_t word = packed.takenWord(word_index) >>
                                   (i % PackedTrace::kWordBits);
        const std::size_t consumed = word_end - i;
        const std::uint64_t mask =
            consumed >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << consumed) - 1;
        taken += static_cast<std::uint64_t>(std::popcount(word & mask));
        i = word_end;
    }
    return taken;
}

/**
 * Replays @p packed through @p predictor using its non-virtual
 * stepFast().
 *
 * @tparam Pred a concrete predictor type providing
 *         `bool stepFast(std::uint64_t pc, bool taken, Hook &hook)`
 *         (predict, then train on @p taken, reporting the serving
 *         counter to the hook; the core of its virtual step()).
 * @tparam Probe accounting sink (sim/probe.hh), passed to stepFast()
 *         as its counter hook; the default NullProbe instantiates
 *         the exact unprobed loop. The probe sees every *measured*
 *         branch (warm-up records are never recorded, matching the
 *         virtual loop's per-branch collection).
 */
template <typename Pred, typename Probe = NullProbe>
SimResult
replayKernel(Pred &predictor, const PackedTrace &packed,
             const SimConfig &config = {}, Probe probe = {})
{
    SimResult result;
    result.predictorName = predictor.name();
    result.counterBits = predictor.counterBits();
    result.storageBits = predictor.storageBits();

    const std::size_t total = packed.size();
    const std::uint64_t *pcs = packed.pcData();
    const std::size_t warmup = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.warmupBranches, total));

    const auto start = std::chrono::steady_clock::now();

    // Warm-up records train the predictor but are excluded from the
    // statistics: their predictions are discarded.
    for (std::size_t i = 0; i < warmup; ++i)
        (void)predictor.stepFast(pcs[i], packed.taken(i));

    // Measured region: stream the taken bitmap one 64-branch word at
    // a time, shifting outcomes out of a register instead of
    // re-indexing the bitmap per branch.
    std::uint64_t mispredictions = 0;
    std::uint64_t taken_branches = 0;
    std::size_t i = warmup;
    while (i < total) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t word_end = std::min(
            total, (word_index + 1) * PackedTrace::kWordBits);
        std::uint64_t word =
            packed.takenWord(word_index) >> (i % PackedTrace::kWordBits);
        for (; i < word_end; ++i, word >>= 1) {
            const std::uint64_t pc = pcs[i];
            const bool taken = (word & 1) != 0;
            const bool mispredicted =
                predictor.stepFast(pc, taken, probe) != taken;
            mispredictions += static_cast<std::uint64_t>(mispredicted);
            taken_branches += static_cast<std::uint64_t>(taken);
            probe.record(i, mispredicted);
        }
    }

    result.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    result.branches = total - warmup;
    result.mispredictions = mispredictions;
    result.takenBranches = taken_branches;
    return result;
}

namespace detail
{

/**
 * The vectorized leg of replayKernelBank(): flattens the bank into
 * SoA lane state and steps 4/8/16 lanes per instruction (sim/simd/).
 * Bit-identity with the scalar bank holds by construction — lanes
 * are the vector axis, branches stay serial (see simd_kernel.hh) —
 * and is enforced per tier by tests/sim/test_replay_bank.cc.
 *
 * @return false, with the bank untouched, when the tier resolves to
 *         Scalar or the flattening cannot express the bank
 *         (ineligible kind, oversize arena); the caller then runs the
 *         scalar bank.
 */
template <typename Pred>
bool
replaySimdBank(std::vector<Pred> &bank, const PackedTrace &packed,
               const SimConfig &config, std::vector<SimResult> &results)
{
    const KernelTier tier = resolveKernelTier(config.kernelTier);
    if (tier == KernelTier::Scalar)
        return false;
    std::optional<SimdBankState> simd = buildSimdBank(bank);
    if (!simd)
        return false;

    const std::size_t lanes = bank.size();
    const std::size_t total = packed.size();
    const std::size_t warmup = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.warmupBranches, total));
    const auto start = std::chrono::steady_clock::now();
    if (!runSimdBank(*simd, tier, packed.pcData(), packed.wordData(),
                     total, warmup)) {
        // The resolved tier has no backend in this binary (shouldn't
        // happen — resolution checks availability); the scalar bank
        // is always a correct answer.
        logSimdBankFallback(bank.front().name(),
                            "resolved tier has no backend in this binary");
        return false;
    }
    const std::uint64_t nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    storeSimdBank(*simd, bank);
    const std::uint64_t taken_branches =
        countTakenInRange(packed, warmup, total);
    for (std::size_t l = 0; l < lanes; ++l) {
        results[l].branches = total - warmup;
        results[l].mispredictions = simd->mispredictions[l];
        results[l].takenBranches = taken_branches;
        results[l].wallNanos = (nanos + lanes / 2) / lanes;
        results[l].fusedLanes = static_cast<std::uint32_t>(lanes);
        results[l].kernelTier = tier;
    }
    return true;
}

} // namespace detail

/**
 * Banked multi-configuration replay: one trace pass drives a whole
 * vector of same-kind predictor instances.
 *
 * The campaign workloads this project exists for are "many
 * configurations over one trace" — a size ladder or an exhaustive
 * history sweep replays the identical packed pc array and taken
 * bitmap once per rung. replayKernelBank() eliminates that
 * redundancy: the trace is streamed a single time in 64-branch
 * blocks, each block's pcs and outcome word feeding every instance
 * in the bank while they are L1-hot, regardless of how many
 * configurations ride along. Within a block the lanes run
 * lane-major (see the loop comment below), so each lane's hot state
 * lives in registers for the whole block.
 *
 * Bit-identity contract: lane i of replayKernelBank(bank, packed,
 * config) must produce exactly the counts of replayKernel(bank[i],
 * packed, config) run alone, and leave bank[i] in the identical
 * state. This holds by construction — each lane runs the same
 * stepFast() sequence it would run alone — and is
 * enforced for every fast-replay kind by
 * tests/sim/test_replay_bank.cc.
 *
 * Timing: only the whole pass is timeable; each lane's wallNanos is
 * the pass time divided by the lane count and its fusedLanes field
 * records the bank width (see SimResult::wallNanos).
 *
 * @tparam BankProbe per-lane accounting sink (sim/probe.hh); the
 *         default NullBankProbe instantiates the exact unprobed
 *         pass. Probed banks always run the scalar lanes below —
 *         the reference every SIMD tier is checked against — and
 *         report kernelTier == Scalar.
 */
template <typename Pred, typename BankProbe = NullBankProbe>
std::vector<SimResult>
replayKernelBank(std::vector<Pred> &bank, const PackedTrace &packed,
                 const SimConfig &config = {}, BankProbe probe = {})
{
    const std::size_t lanes = bank.size();
    std::vector<SimResult> results(lanes);
    if (lanes == 0)
        return results;
    // One lane degenerates to the single kernel — same loop, and the
    // exact (undivided, unflagged) timing semantics.
    if (lanes == 1) {
        results[0] = replayKernel(bank[0], packed, config,
                                  probe.lane(0));
        return results;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        results[l].predictorName = bank[l].name();
        results[l].counterBits = bank[l].counterBits();
        results[l].storageBits = bank[l].storageBits();
    }

    const std::size_t total = packed.size();
    const std::uint64_t *pcs = packed.pcData();
    const std::size_t warmup = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.warmupBranches, total));

    // Probed banks skip the vectorized tiers: per-branch counts come
    // only from the scalar lanes below.
    if constexpr (!BankProbe::kEnabled) {
        if (detail::replaySimdBank(bank, packed, config, results))
            return results;
    }

    Pred *lane = bank.data();
    std::vector<std::uint64_t> lane_mispredictions(lanes, 0);
    std::uint64_t *mispredictions = lane_mispredictions.data();

    const auto start = std::chrono::steady_clock::now();

    // Lane-major within 64-branch blocks: the trace is still streamed
    // once (each block's pcs and taken word are L1-hot while every
    // lane consumes them), but each lane runs a whole block before
    // the next lane is touched. Branch-major order would force every
    // lane's hot state (history register, table base pointer) back
    // through memory on each branch — the stores of the other lanes'
    // steps could alias them; lane-major keeps that state in
    // registers for 64 consecutive steps, which is where the fused
    // path's speedup over per-job passes comes from. Lanes are
    // independent, so reordering steps across lanes cannot change any
    // lane's result.
    std::size_t i = 0;
    while (i < warmup) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t block_end = std::min(
            warmup, (word_index + 1) * PackedTrace::kWordBits);
        const std::uint64_t block_word =
            packed.takenWord(word_index) >> (i % PackedTrace::kWordBits);
        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint64_t word = block_word;
            for (std::size_t j = i; j < block_end; ++j, word >>= 1)
                (void)lane[l].stepFast(pcs[j], (word & 1) != 0);
        }
        i = block_end;
    }

    // Measured-region blocks span several bitmap words so each lane
    // turn covers enough branches to amortize its state reload; the
    // block still fits comfortably in L1 (kBlockWords * 64 pcs = 4 KiB
    // plus the bitmap words).
    constexpr std::size_t kBlockWords = 8;
    constexpr std::size_t kBlockBranches =
        kBlockWords * PackedTrace::kWordBits;
    while (i < total) {
        const std::size_t block_end =
            std::min(total, (i / kBlockBranches + 1) * kBlockBranches);
        for (std::size_t l = 0; l < lanes; ++l) {
            auto laneProbe = probe.lane(l);
            std::uint64_t missed = 0;
            std::size_t j = i;
            while (j < block_end) {
                const std::size_t word_index = j / PackedTrace::kWordBits;
                const std::size_t word_end = std::min(
                    block_end,
                    (word_index + 1) * PackedTrace::kWordBits);
                std::uint64_t word = packed.takenWord(word_index) >>
                                     (j % PackedTrace::kWordBits);
                for (; j < word_end; ++j, word >>= 1) {
                    const bool taken = (word & 1) != 0;
                    const bool mispredicted =
                        lane[l].stepFast(pcs[j], taken, laneProbe) !=
                        taken;
                    missed += static_cast<std::uint64_t>(mispredicted);
                    laneProbe.record(j, mispredicted);
                }
            }
            mispredictions[l] += missed;
        }
        i = block_end;
    }

    const std::uint64_t bank_nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    // The taken count is lane-independent: one popcount of the
    // measured bitmap span.
    const std::uint64_t taken_branches =
        countTakenInRange(packed, warmup, total);
    for (std::size_t l = 0; l < lanes; ++l) {
        results[l].branches = total - warmup;
        results[l].mispredictions = lane_mispredictions[l];
        results[l].takenBranches = taken_branches;
        // Round the per-lane attribution so the reconstructed pass
        // time is off by at most lanes/2 ns instead of always
        // truncating low.
        results[l].wallNanos = (bank_nanos + lanes / 2) / lanes;
        results[l].fusedLanes = static_cast<std::uint32_t>(lanes);
        results[l].kernelTier = KernelTier::Scalar;
    }
    return results;
}

} // namespace bpsim

#endif // BPSIM_SIM_REPLAY_KERNEL_HH
