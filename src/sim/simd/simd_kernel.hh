/**
 * @file
 * The ISA-generic vectorized bank kernel.
 *
 * This header is included ONLY by the per-ISA backend TUs
 * (simd_avx2.cc, simd_avx512.cc, simd_neon.cc), each compiled with
 * its own target flags (src/sim/CMakeLists.txt); including it from
 * generically-compiled code would let target-specific instructions
 * leak into the generic binary.
 *
 * Vectorization axis: lanes, not branches. Each trace branch is
 * consumed serially — gather every lane's counter, predict, saturate,
 * write back, shift every lane's history — before the next branch is
 * touched. A lane therefore performs the exact scalar sequence of
 * loads and stores it would perform alone, in the same order, which
 * is what makes every tier bit-identical to the scalar oracle *by
 * construction*: there is no reconvergence step to get wrong. The
 * speedup comes from the lane axis alone (one gather serves 4/8/16
 * configurations) — the serial chain through each lane's history
 * register and tables is preserved untouched.
 *
 * Two kinds flatten (see simd_bank.hh): gshare, one packed-counter
 * gather per branch, and bi-mode, which reads a pc-indexed choice
 * counter first and lets its sign pick the direction bank. The
 * paper's bi-mode update policies and their ablations are
 * branchless write-back masks.
 *
 * A Backend provides a 32-bit-lane vector type plus the ops the
 * kernel body needs:
 *
 *   using V; kLanes;
 *   load/store (uint32 array <-> V), bcast, zero
 *   and_/or_/xor_/andnot (~a & b), add/sub
 *   sll1 (<<1), sllv/srlv (per-lane shifts)
 *   cmpgt (signed, all-ones mask result)
 *   blend(a, b, m) = m ? b : a
 *   gather32 (uint32 base, element offsets)
 *   scatter32 (uint32 base, offsets, values, active lane count —
 *              lanes >= active must not be written: they are padding
 *              replicas of lane 0 and would corrupt its region)
 *
 * All index math is unsigned 32-bit: tables are capped at 2^28
 * entries (checkedTableEntries) and buildSimdBank() rejects arenas
 * of 2^31+ elements, so offsets stay positive in the signed-index
 * gathers/scatters and lane-local shifts cannot overflow.
 */

#ifndef BPSIM_SIM_SIMD_SIMD_KERNEL_HH
#define BPSIM_SIM_SIMD_SIMD_KERNEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/simd/simd_bank.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{

namespace detail
{

/** Branchless saturate toward the training mask: both step
 *  candidates, then select (cmpgt masks are -1, so subtracting or
 *  adding them steps by one). */
template <typename B>
inline typename B::V
stepSaturating(typename B::V counter, typename B::V maxValue,
               typename B::V zero, typename B::V trainM)
{
    const auto up = B::sub(counter, B::cmpgt(maxValue, counter));
    const auto down = B::add(counter, B::cmpgt(counter, zero));
    return B::blend(down, up, trainM);
}

/**
 * Steps every lane of @p state through branches [0, total), scoring
 * mispredictions from @p warmup on.
 *
 * @tparam B         the ISA backend
 * @tparam Choice    BiMode reads a pc-indexed choice counter whose
 *                   sign selects between the lane's two direction
 *                   banks; None is the single-gather gshare bank
 * @tparam BothBanks bi-mode ablation: some lane disables partial
 *                   update, so the unselected bank is also stepped
 *                   (per-lane bothBanksMask keeps canonical lanes
 *                   partial). Off, the second bank is never touched.
 */
template <typename B, SimdChoiceKind Choice, bool BothBanks>
void
runSimdBankKernel(SimdBankState &state, const std::uint64_t *pcs,
                  const std::uint64_t *words, std::size_t total,
                  std::size_t warmup)
{
    static_assert(!BothBanks || Choice == SimdChoiceKind::BiMode,
                  "only bi-mode has a second direction bank");
    using V = typename B::V;
    constexpr bool kBiMode = Choice == SimdChoiceKind::BiMode;

    const std::size_t lanes = state.lanes;
    std::uint32_t *arena = state.counters.data();
    std::uint32_t *choiceArena =
        state.choiceArena.empty() ? nullptr : state.choiceArena.data();

    // Same block geometry as the scalar bank: lane groups run
    // lane-major within 8-word blocks, so each block's pcs and
    // bitmap words stay L1-hot while every group consumes them.
    constexpr std::size_t kBlockBranches =
        8 * PackedTrace::kWordBits;

    alignas(64) std::uint32_t valBuf[B::kLanes];

    for (std::size_t blockFrom = 0; blockFrom < total;
         blockFrom += kBlockBranches) {
        const std::size_t blockTo =
            std::min(total, blockFrom + kBlockBranches);
        const std::size_t scoreFrom =
            std::clamp(warmup, blockFrom, blockTo);

        for (std::size_t g0 = 0; g0 < lanes; g0 += B::kLanes) {
            const std::size_t active =
                std::min<std::size_t>(B::kLanes, lanes - g0);

            const V laneBase = B::load(&state.laneBase[g0]);
            const V addrMask = B::load(&state.addrMask[g0]);
            const V histMask = B::load(&state.histMask[g0]);
            const V maxValue = B::load(&state.maxValue[g0]);
            const V threshold = B::load(&state.threshold[g0]);
            const V wordShift = B::load(&state.wordShift[g0]);
            const V slotIdxMask = B::load(&state.slotIdxMask[g0]);
            const V slotShift = B::load(&state.slotShift[g0]);
            const V fieldMask = B::load(&state.fieldMask[g0]);
            [[maybe_unused]] const V choiceBase =
                B::load(&state.choiceBase[g0]);
            [[maybe_unused]] const V choiceAddrMask =
                B::load(&state.choiceAddrMask[g0]);
            [[maybe_unused]] const V choiceMaxValue =
                B::load(&state.choiceMaxValue[g0]);
            [[maybe_unused]] const V choiceThreshold =
                B::load(&state.choiceThreshold[g0]);
            [[maybe_unused]] const V bankStride =
                B::load(&state.bankStride[g0]);
            [[maybe_unused]] const V alwaysChoiceMask =
                B::load(&state.alwaysChoiceMask[g0]);
            [[maybe_unused]] const V bothBanksMask =
                B::load(&state.bothBanksMask[g0]);
            const V one = B::bcast(1);
            const V zero = B::zero();

            V hist = B::load(&state.hist[g0]);
            // Block-local 32-bit misprediction accumulator: a block
            // holds at most 512 branches, far below overflow; it is
            // widened into the per-lane uint64 totals below.
            V misses = zero;

            // The warmup/measured split is at most one boundary per
            // block; the score test is a perfectly-predicted branch.
            for (std::size_t j = blockFrom; j < blockTo; ++j) {
                const auto addr =
                    static_cast<std::uint32_t>(pcs[j] >> 2);
                const bool taken =
                    (words[j / PackedTrace::kWordBits] >>
                     (j % PackedTrace::kWordBits)) & 1;
                const V addrV = B::bcast(addr);
                const V takenM =
                    B::bcast(taken ? 0xFFFFFFFFu : 0u);

                // Bi-mode stage one: the pc-indexed choice counter,
                // read before the direction bank so its sign can
                // steer the second gather. The taken bank sits
                // bankStride words past the not-taken bank, so the
                // select is a masked add to the lane base.
                [[maybe_unused]] V choiceOff{}, choiceVal{}, choiceM{};
                V bankBase = laneBase;
                if constexpr (kBiMode) {
                    choiceOff = B::add(
                        choiceBase, B::and_(addrV, choiceAddrMask));
                    choiceVal = B::gather32(choiceArena, choiceOff);
                    choiceM = B::cmpgt(choiceVal, choiceThreshold);
                    bankBase = B::add(laneBase,
                                      B::and_(choiceM, bankStride));
                }

                // idx = (addr & addrMask) ^ hist, the index formula
                // of simd_bank.hh. hist is kept masked at every
                // update, so no mask is needed here. The counter
                // lives in a bit slot of a packed word: locate word
                // and slot, then extract.
                const V index =
                    B::xor_(B::and_(addrV, addrMask), hist);
                const V wordIdx = B::srlv(index, wordShift);
                const V offset = B::add(bankBase, wordIdx);
                const V slot = B::sllv(
                    B::and_(index, slotIdxMask), slotShift);
                const V word = B::gather32(arena, offset);
                const V counter =
                    B::and_(B::srlv(word, slot), fieldMask);
                const V predicted = B::cmpgt(counter, threshold);

                // Saturate toward the outcome and re-insert the
                // stepped counter into its slot. Active lanes hit
                // disjoint regions of the arena, so order within a
                // branch is immaterial; padding lanes (>= active)
                // are never written.
                const V updated = stepSaturating<B>(
                    counter, maxValue, zero, takenM);
                B::scatter32(
                    arena, offset,
                    B::or_(B::andnot(B::sllv(fieldMask, slot), word),
                           B::sllv(updated, slot)),
                    active);

                if constexpr (BothBanks) {
                    // Partial-update ablation: step the UNselected
                    // bank's counter too. The two banks are disjoint
                    // word ranges, so this RMW cannot collide with
                    // the selected-bank scatter above. Lanes still on
                    // the paper policy blend back the old value
                    // (bothBanksMask is per-lane: fused banks may mix
                    // policies).
                    const V otherOff = B::add(
                        B::add(laneBase,
                               B::andnot(choiceM, bankStride)),
                        wordIdx);
                    const V otherWord = B::gather32(arena, otherOff);
                    const V otherCnt = B::and_(
                        B::srlv(otherWord, slot), fieldMask);
                    const V oNew = B::blend(
                        otherCnt,
                        stepSaturating<B>(otherCnt, maxValue, zero,
                                          takenM),
                        bothBanksMask);
                    B::scatter32(
                        arena, otherOff,
                        B::or_(B::andnot(B::sllv(fieldMask, slot),
                                         otherWord),
                               B::sllv(oNew, slot)),
                        active);
                }

                if constexpr (kBiMode) {
                    // Choice table trains toward the outcome, EXCEPT
                    // when it picked the "wrong" bank but that bank
                    // still predicted correctly (the paper's choice
                    // exception; alwaysChoiceMask lanes run the
                    // always-update ablation instead).
                    const V cStepped = stepSaturating<B>(
                        choiceVal, choiceMaxValue, zero, takenM);
                    // keep = ~always & (choice != taken) &
                    //        ~(predicted != taken)
                    const V keepM = B::andnot(
                        alwaysChoiceMask,
                        B::andnot(B::xor_(predicted, takenM),
                                  B::xor_(choiceM, takenM)));
                    B::scatter32(choiceArena, choiceOff,
                                 B::blend(cStepped, choiceVal, keepM),
                                 active);
                }

                if (j >= scoreFrom) {
                    // predicted ^ takenM is all-ones (-1) exactly on
                    // a mispredicting lane; subtracting adds 1.
                    const V mispredM = B::xor_(predicted, takenM);
                    misses = B::sub(misses, mispredM);
                }

                hist = B::and_(
                    B::or_(B::sll1(hist), B::and_(takenM, one)),
                    histMask);
            }

            B::store(&state.hist[g0], hist);
            B::store(valBuf, misses);
            for (std::size_t k = 0; k < active; ++k)
                state.mispredictions[g0 + k] += valBuf[k];
        }
    }
}

/** Instantiates the kernel matching @p state's flavor for backend
 *  @p B, the shared dispatch of every per-ISA entry point: gshare,
 *  bi-mode, and bi-mode with a partialUpdate=false lane. */
template <typename B>
void
dispatchSimdBankKernel(SimdBankState &state, const std::uint64_t *pcs,
                       const std::uint64_t *words, std::size_t total,
                       std::size_t warmup)
{
    if (state.choiceKind == SimdChoiceKind::None) {
        runSimdBankKernel<B, SimdChoiceKind::None, false>(
            state, pcs, words, total, warmup);
    } else if (state.updateBothBanks) {
        runSimdBankKernel<B, SimdChoiceKind::BiMode, true>(
            state, pcs, words, total, warmup);
    } else {
        runSimdBankKernel<B, SimdChoiceKind::BiMode, false>(
            state, pcs, words, total, warmup);
    }
}

} // namespace detail

} // namespace bpsim

#endif // BPSIM_SIM_SIMD_SIMD_KERNEL_HH
