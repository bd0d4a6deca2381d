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
 * Multi-read kinds (bi-mode, agree, tournament, gskew, yags, filter)
 * surround the direction read with one or two further per-branch
 * reads; a choice/meta/filter word steers the direction gather
 * (bank-select blend, tournament component select, PHT bypass),
 * flips the prediction (agreement XNOR), or arbitrates a tagged
 * probe (yags hit mask), and every update policy becomes a
 * branchless write-back mask. gskew instead issues three skew-hashed
 * direction gathers and takes a 2-of-3 majority vote. See
 * SimdChoiceKind in simd_bank.hh.
 *
 * A Backend provides a 32-bit-lane vector type plus the ops the
 * kernel body needs:
 *
 *   using V; kLanes;
 *   load/store (uint32 array <-> V), bcast, zero
 *   and_/or_/xor_/andnot (~a & b), add/sub
 *   sll1 (<<1), sllv/srlv (per-lane shifts)
 *   cmpgt (signed, all-ones mask result), cmpeq (all-ones mask),
 *   blend(a, b, m) = m ? b : a
 *   mullo/mulhi (low/high 32 bits of the unsigned 32x32 product,
 *                the gskew hash-multiply halves)
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
 * @tparam B           the ISA backend
 * @tparam Choice      multi-read kinds (simd_bank.hh): BiMode reads a
 *                     choice counter whose sign blend-selects between
 *                     two direction banks; Agree reads a biasing word
 *                     that flips the counter's meaning to agreement;
 *                     Tournament/Gskew/Yags/Filter run their own
 *                     three-read/majority/tagged-probe/run-filter
 *                     stages (see the per-kind blocks below)
 * @tparam BothBanks   bi-mode ablation: some lane disables partial
 *                     update, so the unselected bank is also stepped
 *                     (per-lane bothBanksMask keeps canonical lanes
 *                     partial). Off, the second bank is never touched.
 * @tparam LocalHistory per-address first level (PAg/PAs): history is
 *                     gathered/scattered per branch instead of
 *                     carried in a register
 * @tparam Packed      counters are bit-packed into arena words (see
 *                     SimdBankState::packed); false runs the
 *                     one-counter-per-word layout without the slot
 *                     math
 */
template <typename B, SimdChoiceKind Choice, bool BothBanks,
          bool LocalHistory, bool Packed>
void
runSimdBankKernel(SimdBankState &state, const std::uint64_t *pcs,
                  const std::uint64_t *words, std::size_t total,
                  std::size_t warmup)
{
    using V = typename B::V;

    const std::size_t lanes = state.lanes;
    std::uint32_t *arena = state.counters.data();
    std::uint32_t *localHist =
        state.localHist.empty() ? nullptr : state.localHist.data();
    std::uint32_t *choiceArena =
        state.choiceArena.empty() ? nullptr : state.choiceArena.data();
    // Uniform gskew fold trip count (max over lanes; narrow lanes
    // fold zero chunks on their extra rounds, a no-op).
    [[maybe_unused]] const std::uint32_t foldRounds = state.foldRounds;

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
            const V histShift = B::load(&state.histShift[g0]);
            const V histMask = B::load(&state.histMask[g0]);
            [[maybe_unused]] const V localBase =
                B::load(&state.localBase[g0]);
            [[maybe_unused]] const V localMask =
                B::load(&state.localMask[g0]);
            const V maxValue = B::load(&state.maxValue[g0]);
            const V threshold = B::load(&state.threshold[g0]);
            [[maybe_unused]] const V wordShift =
                B::load(&state.wordShift[g0]);
            [[maybe_unused]] const V slotIdxMask =
                B::load(&state.slotIdxMask[g0]);
            [[maybe_unused]] const V slotShift =
                B::load(&state.slotShift[g0]);
            [[maybe_unused]] const V fieldMask =
                B::load(&state.fieldMask[g0]);
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
            [[maybe_unused]] const V auxBase =
                B::load(&state.auxBase[g0]);
            [[maybe_unused]] const V auxAddrMask =
                B::load(&state.auxAddrMask[g0]);
            [[maybe_unused]] const V auxMaxValue =
                B::load(&state.auxMaxValue[g0]);
            [[maybe_unused]] const V auxThreshold =
                B::load(&state.auxThreshold[g0]);
            [[maybe_unused]] const V tagShift =
                B::load(&state.tagShift[g0]);
            [[maybe_unused]] const V tagMask =
                B::load(&state.tagMask[g0]);
            [[maybe_unused]] const V hashFieldMask =
                B::load(&state.hashFieldMask[g0]);
            [[maybe_unused]] const V foldShift =
                B::load(&state.foldShift[g0]);
            const V one = B::bcast(1);
            const V zero = B::zero();
            [[maybe_unused]] const V two = B::bcast(2);
            [[maybe_unused]] const V ones = B::bcast(0xFFFFFFFFu);

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

                [[maybe_unused]] V h{};
                V predicted;
                if constexpr (Choice == SimdChoiceKind::Tournament) {
                    // Three gathers: the pc-indexed meta counter
                    // selects per lane between the pc-indexed bimodal
                    // counter (choice arena, aux constants) and the
                    // packed gshare counter. All three tables are
                    // disjoint, so reads-before-writes matches the
                    // scalar order exactly.
                    const V metaOff = B::add(
                        choiceBase, B::and_(addrV, choiceAddrMask));
                    const V metaVal = B::gather32(choiceArena, metaOff);
                    const V useSecondM =
                        B::cmpgt(metaVal, choiceThreshold);
                    const V bimOff = B::add(
                        auxBase, B::and_(addrV, auxAddrMask));
                    const V bimVal = B::gather32(choiceArena, bimOff);
                    const V p0M = B::cmpgt(bimVal, auxThreshold);
                    // gshare: idx = (addr & addrMask) ^ hist, packed.
                    const V index = B::xor_(
                        B::and_(addrV, addrMask), hist);
                    const V offset = B::add(
                        laneBase, B::srlv(index, wordShift));
                    const V slot = B::sllv(
                        B::and_(index, slotIdxMask), slotShift);
                    const V word = B::gather32(arena, offset);
                    const V counter = B::and_(
                        B::srlv(word, slot), fieldMask);
                    const V p1M = B::cmpgt(counter, threshold);
                    predicted = B::blend(p0M, p1M, useSecondM);
                    // Both components train toward the outcome.
                    B::scatter32(choiceArena, bimOff,
                                 stepSaturating<B>(bimVal, auxMaxValue,
                                                   zero, takenM),
                                 active);
                    const V updated = stepSaturating<B>(
                        counter, maxValue, zero, takenM);
                    B::scatter32(
                        arena, offset,
                        B::or_(B::andnot(B::sllv(fieldMask, slot),
                                         word),
                               B::sllv(updated, slot)),
                        active);
                    // The meta counter trains toward "the gshare
                    // component was right", but only when the
                    // components disagree.
                    const V mStepped = stepSaturating<B>(
                        metaVal, choiceMaxValue, zero,
                        B::andnot(B::xor_(p1M, takenM), ones));
                    B::scatter32(choiceArena, metaOff,
                                 B::blend(metaVal, mStepped,
                                          B::xor_(p0M, p1M)),
                                 active);
                } else if constexpr (Choice == SimdChoiceKind::Gskew) {
                    // Three skew-hashed gathers from the lane's
                    // back-to-back banks, then a 2-of-3 majority
                    // vote. The hashes mirror gskew.hh bit for bit:
                    // bank 0 indexes by address alone; banks 1 and 2
                    // multiply a mixed address/history field by a
                    // 64-bit odd constant and xor-fold the 64-bit
                    // product into the index width. The product lives
                    // in two 32-bit halves: lo = x * K_lo (low), hi =
                    // mulhi(x, K_lo) + x * K_hi.
                    const V address = B::and_(addrV, hashFieldMask);
                    const V idx0 = B::and_(address, addrMask);
                    const V foldShiftComp =
                        B::sub(B::bcast(32), foldShift);
                    const auto fold64 = [&](V hi, V lo) {
                        // Scalar foldXor: xor the low foldShift bits,
                        // shift the 64-bit pair right by foldShift,
                        // repeat until the widest lane's product is
                        // consumed (narrow lanes fold zeros).
                        V folded = B::and_(lo, addrMask);
                        for (std::uint32_t r = 1; r < foldRounds;
                             ++r) {
                            lo = B::or_(B::srlv(lo, foldShift),
                                        B::sllv(hi, foldShiftComp));
                            hi = B::srlv(hi, foldShift);
                            folded = B::xor_(
                                folded, B::and_(lo, addrMask));
                        }
                        return folded;
                    };
                    const V k1lo = B::bcast(0x7f4a7c15u);
                    const V k1hi = B::bcast(0x9e3779b9u);
                    const V x1 = B::xor_(address, hist);
                    const V idx1 = fold64(
                        B::add(B::mulhi(x1, k1lo),
                               B::mullo(x1, k1hi)),
                        B::mullo(x1, k1lo));
                    const V k2lo = B::bcast(0x27d4eb4fu);
                    const V k2hi = B::bcast(0xc2b2ae3du);
                    // The builder caps the address field at 31 bits
                    // and the history at 29, so this add cannot carry
                    // past the 32-bit lane (it matches the scalar
                    // 64-bit sum exactly).
                    const V x2 = B::add(address, B::sll1(hist));
                    const V idx2 = fold64(
                        B::add(B::mulhi(x2, k2lo),
                               B::mullo(x2, k2hi)),
                        B::mullo(x2, k2lo));

                    const V off0 = B::add(
                        laneBase, B::srlv(idx0, wordShift));
                    const V slot0 = B::sllv(
                        B::and_(idx0, slotIdxMask), slotShift);
                    const V word0 = B::gather32(arena, off0);
                    const V cnt0 = B::and_(
                        B::srlv(word0, slot0), fieldMask);
                    const V base1 = B::add(laneBase, bankStride);
                    const V off1 = B::add(
                        base1, B::srlv(idx1, wordShift));
                    const V slot1 = B::sllv(
                        B::and_(idx1, slotIdxMask), slotShift);
                    const V word1 = B::gather32(arena, off1);
                    const V cnt1 = B::and_(
                        B::srlv(word1, slot1), fieldMask);
                    const V off2 = B::add(
                        B::add(base1, bankStride),
                        B::srlv(idx2, wordShift));
                    const V slot2 = B::sllv(
                        B::and_(idx2, slotIdxMask), slotShift);
                    const V word2 = B::gather32(arena, off2);
                    const V cnt2 = B::and_(
                        B::srlv(word2, slot2), fieldMask);

                    const V v0M = B::cmpgt(cnt0, threshold);
                    const V v1M = B::cmpgt(cnt1, threshold);
                    const V v2M = B::cmpgt(cnt2, threshold);
                    predicted = B::or_(
                        B::and_(v0M, v1M),
                        B::and_(v2M, B::or_(v0M, v1M)));

                    // e-gskew partial update: bank 0 always trains;
                    // banks 1/2 train when the vote mispredicted or
                    // they agreed with the outcome (bothBanksMask
                    // lanes run the full-update ablation). The banks
                    // are disjoint word ranges, so the three RMWs
                    // cannot collide.
                    const V mispM = B::xor_(predicted, takenM);
                    B::scatter32(
                        arena, off0,
                        B::or_(B::andnot(B::sllv(fieldMask, slot0),
                                         word0),
                               B::sllv(stepSaturating<B>(
                                           cnt0, maxValue, zero,
                                           takenM),
                                       slot0)),
                        active);
                    const V upd1M = B::or_(
                        bothBanksMask,
                        B::or_(mispM,
                               B::andnot(B::xor_(v1M, takenM),
                                         ones)));
                    const V new1 = B::blend(
                        cnt1,
                        stepSaturating<B>(cnt1, maxValue, zero,
                                          takenM),
                        upd1M);
                    B::scatter32(
                        arena, off1,
                        B::or_(B::andnot(B::sllv(fieldMask, slot1),
                                         word1),
                               B::sllv(new1, slot1)),
                        active);
                    const V upd2M = B::or_(
                        bothBanksMask,
                        B::or_(mispM,
                               B::andnot(B::xor_(v2M, takenM),
                                         ones)));
                    const V new2 = B::blend(
                        cnt2,
                        stepSaturating<B>(cnt2, maxValue, zero,
                                          takenM),
                        upd2M);
                    B::scatter32(
                        arena, off2,
                        B::or_(B::andnot(B::sllv(fieldMask, slot2),
                                         word2),
                               B::sllv(new2, slot2)),
                        active);
                } else if constexpr (Choice == SimdChoiceKind::Yags) {
                    // Choice gather, then a tagged probe of the cache
                    // opposite the choice direction: the entry word
                    // packs counter/tag/valid (kYagsCounterMask
                    // layout), the hit test is a gathered tag
                    // compare, and both the hit step and the
                    // allocation are masked whole-word write-backs.
                    const V choiceOff = B::add(
                        choiceBase, B::and_(addrV, choiceAddrMask));
                    const V choiceVal =
                        B::gather32(choiceArena, choiceOff);
                    const V choiceM =
                        B::cmpgt(choiceVal, choiceThreshold);
                    const V index = B::xor_(
                        B::and_(addrV, addrMask), hist);
                    // The taken cache sits bankStride words past the
                    // not-taken cache; consult the opposite of the
                    // choice, so the stride add is masked by ~choice.
                    const V offset = B::add(
                        B::add(laneBase,
                               B::andnot(choiceM, bankStride)),
                        index);
                    const V entry = B::gather32(arena, offset);
                    const V counterMask = B::bcast(kYagsCounterMask);
                    const V counter = B::and_(entry, counterMask);
                    const V entryTagShift = B::bcast(kYagsTagShift);
                    const V entryTag = B::and_(
                        B::srlv(entry, entryTagShift), tagMask);
                    const V tag = B::and_(
                        B::srlv(addrV, tagShift), tagMask);
                    const V validM = B::cmpgt(
                        B::and_(entry, B::bcast(kYagsValidBit)),
                        zero);
                    const V hitM = B::and_(
                        validM, B::cmpeq(entryTag, tag));
                    predicted = B::blend(
                        choiceM, B::cmpgt(counter, threshold), hitM);
                    // Hit: step the counter inside the word. Miss
                    // deviating from the choice: allocate
                    // valid/tag/weak-toward-outcome (weaklyTaken is
                    // threshold + 1, weaklyNotTaken is threshold).
                    const V wordHit = B::or_(
                        B::andnot(counterMask, entry),
                        stepSaturating<B>(counter, maxValue, zero,
                                          takenM));
                    const V wordAlloc = B::or_(
                        B::or_(B::bcast(kYagsValidBit),
                               B::sllv(tag, entryTagShift)),
                        B::sub(threshold, takenM));
                    const V allocM = B::andnot(
                        hitM, B::xor_(choiceM, takenM));
                    B::scatter32(
                        arena, offset,
                        B::blend(B::blend(entry, wordAlloc, allocM),
                                 wordHit, hitM),
                        active);
                    // The choice table follows the bi-mode exception
                    // policy: train toward the outcome unless the
                    // choice was wrong but the cache corrected it.
                    const V cStepped = stepSaturating<B>(
                        choiceVal, choiceMaxValue, zero, takenM);
                    const V keepM = B::andnot(
                        B::xor_(predicted, takenM),
                        B::xor_(choiceM, takenM));
                    B::scatter32(choiceArena, choiceOff,
                                 B::blend(cStepped, choiceVal, keepM),
                                 active);
                } else if constexpr (Choice == SimdChoiceKind::Filter) {
                    // The pc-indexed filter word (direction bit 0,
                    // run length above) gates the gshare-indexed PHT:
                    // a saturated run predicts by direction and masks
                    // the PHT update off; saturate/increment/reset of
                    // the run are branchless blends.
                    const V fOff = B::add(
                        choiceBase, B::and_(addrV, choiceAddrMask));
                    const V fVal = B::gather32(choiceArena, fOff);
                    const V dirM = B::cmpgt(B::and_(fVal, one), zero);
                    const V run = B::srlv(fVal, one);
                    const V filteredM =
                        B::cmpeq(run, choiceMaxValue);
                    const V index = B::xor_(
                        B::and_(addrV, addrMask), hist);
                    const V offset = B::add(
                        laneBase, B::srlv(index, wordShift));
                    const V slot = B::sllv(
                        B::and_(index, slotIdxMask), slotShift);
                    const V word = B::gather32(arena, offset);
                    const V counter = B::and_(
                        B::srlv(word, slot), fieldMask);
                    predicted = B::blend(
                        B::cmpgt(counter, threshold), dirM,
                        filteredM);
                    // Filtered lanes keep the old counter value — a
                    // same-value store to the lane's private word, so
                    // the PHT bypass stays bit-exact.
                    const V stepped = stepSaturating<B>(
                        counter, maxValue, zero, takenM);
                    const V newCnt =
                        B::blend(stepped, counter, filteredM);
                    B::scatter32(
                        arena, offset,
                        B::or_(B::andnot(B::sllv(fieldMask, slot),
                                         word),
                               B::sllv(newCnt, slot)),
                        active);
                    // Same direction: increment the run, saturating.
                    // Direction change: restart at (outcome, 1).
                    const V sameM = B::andnot(
                        B::xor_(dirM, takenM), ones);
                    const V runInc = B::sub(
                        run, B::cmpgt(choiceMaxValue, run));
                    const V takenBit = B::and_(takenM, one);
                    const V sameWord = B::or_(
                        B::and_(fVal, one), B::sll1(runInc));
                    const V diffWord = B::or_(takenBit, two);
                    B::scatter32(choiceArena, fOff,
                                 B::blend(diffWord, sameWord, sameM),
                                 active);
                } else {

                // Stage one of the two-gather kinds: the pc-indexed
                // choice word (bi-mode choice counter / agree biasing
                // bits), read before the direction bank so its value
                // can steer the second gather.
                [[maybe_unused]] V choiceOff{}, choiceVal{};
                if constexpr (Choice != SimdChoiceKind::None) {
                    choiceOff = B::add(
                        choiceBase, B::and_(addrV, choiceAddrMask));
                    choiceVal = B::gather32(choiceArena, choiceOff);
                }

                if constexpr (LocalHistory) {
                    h = B::gather32(
                        localHist,
                        B::add(localBase, B::and_(addrV, localMask)));
                } else {
                    h = hist;
                }

                // idx = ((addr & addrMask) << histShift) ^ hist —
                // the unified formula of simd_bank.hh. hist is kept
                // masked at every update, so no mask is needed here.
                const V index = B::xor_(
                    B::sllv(B::and_(addrV, addrMask), histShift), h);
                V offset, counter;
                [[maybe_unused]] V slot{}, word{}, wordIdx{},
                    choiceM{};
                if constexpr (Choice == SimdChoiceKind::BiMode) {
                    // The choice sign picks the direction bank: the
                    // taken bank sits bankStride words past the
                    // not-taken bank, so the select is a masked add.
                    choiceM = B::cmpgt(choiceVal, choiceThreshold);
                    wordIdx = B::srlv(index, wordShift);
                    offset = B::add(
                        B::add(laneBase,
                               B::and_(choiceM, bankStride)),
                        wordIdx);
                    slot = B::sllv(
                        B::and_(index, slotIdxMask), slotShift);
                    word = B::gather32(arena, offset);
                    counter = B::and_(
                        B::srlv(word, slot), fieldMask);
                } else if constexpr (Packed) {
                    // The counter lives in a bit slot of a packed
                    // word (simd_bank.hh): locate word and slot,
                    // then extract.
                    offset = B::add(
                        laneBase, B::srlv(index, wordShift));
                    slot = B::sllv(
                        B::and_(index, slotIdxMask), slotShift);
                    word = B::gather32(arena, offset);
                    counter = B::and_(
                        B::srlv(word, slot), fieldMask);
                } else {
                    offset = B::add(laneBase, index);
                    counter = B::gather32(arena, offset);
                }

                [[maybe_unused]] V validM{}, biasM{};
                if constexpr (Choice == SimdChoiceKind::Agree) {
                    // Choice word: bit 0 = valid, bit 1 = biasing
                    // bit; an unseen branch defaults to a taken bias
                    // (agree.hh). The counter predicts agreement, so
                    // the direction is counter-sign XNOR bias.
                    validM = B::cmpgt(B::and_(choiceVal, one), zero);
                    biasM = B::cmpgt(B::and_(choiceVal, two), zero);
                    const V oldBiasM = B::blend(ones, biasM, validM);
                    predicted = B::andnot(
                        B::xor_(B::cmpgt(counter, threshold),
                                oldBiasM),
                        ones);
                } else {
                    predicted = B::cmpgt(counter, threshold);
                }

                // The counter trains toward the outcome — except for
                // agree, where it trains toward agreement with the
                // post-capture bias (taken XNOR newBias).
                [[maybe_unused]] V newBiasM{};
                V trainM;
                if constexpr (Choice == SimdChoiceKind::Agree) {
                    // First encounter captures the outcome as bias.
                    newBiasM = B::blend(takenM, biasM, validM);
                    trainM = B::andnot(
                        B::xor_(takenM, newBiasM), ones);
                } else {
                    trainM = takenM;
                }

                // Branchless saturate toward the training direction.
                const V updated = stepSaturating<B>(
                    counter, maxValue, zero, trainM);

                // Store back (packed: re-insert the stepped counter
                // into its slot first). Active lanes hit disjoint
                // regions of the arena, so order within a branch is
                // immaterial; padding lanes (>= active) are never
                // written.
                V rewritten;
                if constexpr (Packed) {
                    rewritten = B::or_(
                        B::andnot(B::sllv(fieldMask, slot), word),
                        B::sllv(updated, slot));
                } else {
                    rewritten = updated;
                }
                B::scatter32(arena, offset, rewritten, active);

                if constexpr (Choice == SimdChoiceKind::BiMode &&
                              BothBanks) {
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

                if constexpr (Choice == SimdChoiceKind::BiMode) {
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
                } else if constexpr (Choice == SimdChoiceKind::Agree) {
                    // Re-pack valid=1 plus the (possibly captured)
                    // biasing bit.
                    B::scatter32(choiceArena, choiceOff,
                                 B::or_(one, B::and_(newBiasM, two)),
                                 active);
                }

                }

                if (j >= scoreFrom) {
                    // predicted ^ takenM is all-ones (-1) exactly on
                    // a mispredicting lane; subtracting adds 1.
                    const V mispredM = B::xor_(predicted, takenM);
                    misses = B::sub(misses, mispredM);
                }

                const V takenBit = B::and_(takenM, one);
                if constexpr (LocalHistory) {
                    // The index recomputation is CSE'd against the
                    // gather above.
                    const V localIdx = B::add(
                        localBase, B::and_(addrV, localMask));
                    const V shifted = B::and_(
                        B::or_(B::sll1(h), takenBit), histMask);
                    B::scatter32(localHist, localIdx, shifted, active);
                } else {
                    hist = B::and_(
                        B::or_(B::sll1(hist), takenBit), histMask);
                }
            }

            B::store(&state.hist[g0], hist);
            B::store(valBuf, misses);
            for (std::size_t k = 0; k < active; ++k)
                state.mispredictions[g0 + k] += valBuf[k];
        }
    }
}

/** Instantiates the kernel matching @p state's choice, history and
 *  packing flavors for backend @p B — the shared dispatch of every
 *  per-ISA entry point. Only the combinations a builder can produce
 *  are instantiated: two-gather kinds are always packed with a global
 *  (or no) history register, and only bi-mode has a second bank. */
template <typename B>
void
dispatchSimdBankKernel(SimdBankState &state, const std::uint64_t *pcs,
                       const std::uint64_t *words, std::size_t total,
                       std::size_t warmup)
{
    constexpr auto kNone = SimdChoiceKind::None;
    switch (state.choiceKind) {
      case SimdChoiceKind::BiMode:
        if (state.updateBothBanks) {
            runSimdBankKernel<B, SimdChoiceKind::BiMode, true, false,
                              true>(state, pcs, words, total, warmup);
        } else {
            runSimdBankKernel<B, SimdChoiceKind::BiMode, false, false,
                              true>(state, pcs, words, total, warmup);
        }
        return;
      case SimdChoiceKind::Agree:
        runSimdBankKernel<B, SimdChoiceKind::Agree, false, false, true>(
            state, pcs, words, total, warmup);
        return;
      case SimdChoiceKind::Tournament:
        runSimdBankKernel<B, SimdChoiceKind::Tournament, false, false,
                          true>(state, pcs, words, total, warmup);
        return;
      case SimdChoiceKind::Gskew:
        runSimdBankKernel<B, SimdChoiceKind::Gskew, false, false, true>(
            state, pcs, words, total, warmup);
        return;
      case SimdChoiceKind::Yags:
        // Yags is the one unpacked multi-read kind: each cache entry
        // is a whole valid/tag/counter word.
        runSimdBankKernel<B, SimdChoiceKind::Yags, false, false, false>(
            state, pcs, words, total, warmup);
        return;
      case SimdChoiceKind::Filter:
        runSimdBankKernel<B, SimdChoiceKind::Filter, false, false, true>(
            state, pcs, words, total, warmup);
        return;
      case SimdChoiceKind::None:
        break;
    }
    if (state.localHistory) {
        if (state.packed) {
            runSimdBankKernel<B, kNone, false, true, true>(
                state, pcs, words, total, warmup);
        } else {
            runSimdBankKernel<B, kNone, false, true, false>(
                state, pcs, words, total, warmup);
        }
    } else if (state.packed) {
        runSimdBankKernel<B, kNone, false, false, true>(
            state, pcs, words, total, warmup);
    } else {
        runSimdBankKernel<B, kNone, false, false, false>(
            state, pcs, words, total, warmup);
    }
}

} // namespace detail

} // namespace bpsim

#endif // BPSIM_SIM_SIMD_SIMD_KERNEL_HH
