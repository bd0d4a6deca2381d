/**
 * @file
 * SoA lane state for the vectorized banked replay kernel.
 *
 * The scalar bank (sim/replay_kernel.hh) steps each lane's predictor
 * object in place. The SIMD tiers instead flatten a bank of
 * structurally uniform predictors into one gather-friendly arena —
 * every lane's counter table bit-packed back to back into a shared
 * uint32 word array — plus per-lane constant vectors describing each
 * lane's index function. Two kinds flatten, the two the paper sweeps
 * wide (the size ladders, the history sweep and the bi-mode
 * ablation); both index their direction counters as
 *
 *     idx = (addr & addrMask) ^ (hist & histMask)
 *
 *   gshare   addrMask = 2^n-1, histMask = 2^m-1
 *   bimode   addrMask = 2^d-1 and histMask as gshare, plus a
 *            choice-counter read at addr & choiceAddrMask whose sign
 *            blends bankStride into the direction base — the
 *            taken/not-taken banks sit back to back in the lane's
 *            counter region — with the paper's partial-update and
 *            choice-exception policies expressed as branchless
 *            write-back masks (bothBanksMask, alwaysChoiceMask)
 *
 * Every other fast kind falls to the buildSimdBank() catch-all and
 * runs the lane-major scalar bank, which still fuses it: its banks
 * are two to four lanes wide in practice, where a vector pass does
 * not beat the scalar one.
 *
 * Lanes are vectorized, branches stay serial: for each trace branch
 * the kernel gathers every lane's counter, predicts, saturates and
 * writes back before consuming the next branch. That preserves the
 * exact serial state dependency of the scalar oracle, which is what
 * makes bit-identity hold by construction rather than by accident.
 *
 * buildSimdBank() returns std::nullopt whenever the bank shape is
 * outside what 32-bit gather indices (or the formula above) can
 * express; the caller then falls back to the scalar bank.
 */

#ifndef BPSIM_SIM_SIMD_SIMD_BANK_HH
#define BPSIM_SIM_SIMD_SIMD_BANK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simd/kernel_tier.hh"

namespace bpsim
{

class BiModePredictor;
class GsharePredictor;

/**
 * Kernel flavor of a flattened bank: whether a choice-arena read
 * steers the direction-bank read.
 */
enum class SimdChoiceKind : std::uint8_t
{
    /** No choice stage: gshare's single gather. */
    None,
    /** Bi-mode: a pc-indexed choice counter selects between two
     *  direction banks sharing one gshare index. */
    BiMode,
};

/** Widest group any backend steps at once (AVX-512, 16 lanes).
 *  Per-lane arrays are padded to a multiple of this so every backend
 *  can issue full-width loads of lane constants. */
constexpr std::size_t kMaxSimdGroupLanes = 16;

/**
 * Zero elements inserted before every lane's region in the shared
 * arenas.
 *
 * Predictor tables are power-of-two sized, so back-to-back lane
 * regions put every lane's copy of one index at power-of-two byte
 * strides — all sixteen stores and the next branch's gather then
 * collide in the low 12 address bits and the store-to-load
 * disambiguation stalls serialize the kernel (4K aliasing). A
 * 64-byte gap per lane skews the strides off the page-offset
 * pattern; on AVX-512 hardware this alone roughly doubles bank
 * throughput.
 */
constexpr std::size_t kSimdLaneStagger = 16;

/**
 * Flattened bank state for one SIMD replay.
 *
 * Per-lane arrays have paddedLanes() elements; entries past lanes
 * replicate lane 0, so padded vector lanes execute lane 0's index
 * function against lane 0's tables (all loads stay in valid memory)
 * while their results are simply never written back.
 */
struct SimdBankState
{
    /** Active lanes (the bank size); padding lanes beyond this are
     *  never stored back. */
    std::size_t lanes = 0;
    /** Which kernel flavor runs: None for gshare, BiMode for bimode. */
    SimdChoiceKind choiceKind = SimdChoiceKind::None;
    /** Bi-mode only: true when any lane runs the partialUpdate=false
     *  ablation, selecting the kernel variant that also steps the
     *  unselected bank (gated per lane by bothBanksMask). */
    bool updateBothBanks = false;

    /**
     * All lanes' counter tables, bit-packed into uint32 words, each
     * lane's run preceded by a kSimdLaneStagger gap (see above).
     *
     * Counter idx of lane l lives in word
     * laneBase[l] + (idx >> wordShift[l]), in the field of
     * fieldMask[l] starting at bit
     * (idx & slotIdxMask[l]) << slotShift[l]. Slots are the power of
     * two >= the counter width, so 2-bit counters pack 16 per word —
     * a 16-fold footprint cut that keeps realistic history-indexed
     * banks L1-resident (gathers were the dominant cost on
     * out-of-L1 banks).
     */
    std::vector<std::uint32_t> counters;
    /**
     * Bi-mode's choice counters, staggered like the counter arena but
     * one counter per word (lane l's at choiceBase[l] + idx): the
     * choice table is pc-indexed, so nearby branches re-touch the
     * same entry, and a packed layout would trade its footprint cut
     * for scatter-to-gather forwarding stalls.
     */
    std::vector<std::uint32_t> choiceArena;

    /** @name Per-lane constants (paddedLanes() elements) */
    /**@{*/
    std::vector<std::uint32_t> laneBase;   ///< lane's word offset in counters
    std::vector<std::uint32_t> addrMask;   ///< address bits kept
    std::vector<std::uint32_t> histMask;   ///< history register mask
    std::vector<std::uint32_t> maxValue;   ///< counter saturation value
    std::vector<std::uint32_t> threshold;  ///< predict taken when >
    std::vector<std::uint32_t> wordShift;  ///< log2 counters per word
    std::vector<std::uint32_t> slotIdxMask; ///< counters per word - 1
    std::vector<std::uint32_t> slotShift;  ///< log2 slot width in bits
    std::vector<std::uint32_t> fieldMask;  ///< slot-wide value mask
    /** @name Choice-stage constants (bimode) */
    std::vector<std::uint32_t> choiceBase; ///< lane's offset in choiceArena
    std::vector<std::uint32_t> choiceAddrMask; ///< choice-index pc mask
    std::vector<std::uint32_t> choiceMaxValue; ///< choice saturation
    std::vector<std::uint32_t> choiceThreshold; ///< bank select when >
    /** Counter-arena words from the lane's not-taken bank to its
     *  taken bank. */
    std::vector<std::uint32_t> bankStride;
    /** All-ones on lanes running the alwaysUpdateChoice ablation:
     *  disables the choice-exception write-back mask. */
    std::vector<std::uint32_t> alwaysChoiceMask;
    /** All-ones on lanes running the partialUpdate=false ablation:
     *  enables the unselected-bank write-back. */
    std::vector<std::uint32_t> bothBanksMask;
    /**@}*/

    /** Global-history registers, live kernel state (updated per
     *  branch, stored back to the predictors afterwards). */
    std::vector<std::uint32_t> hist;

    /** Per-lane misprediction counts over the measured region
     *  (lanes elements, not padded). */
    std::vector<std::uint64_t> mispredictions;

    std::size_t
    paddedLanes() const
    {
        return laneBase.size();
    }
};

/**
 * Flattens @p bank into SIMD lane state, copying counters/history
 * out of the predictors. The predictors themselves are not modified
 * until storeSimdBank(). Returns std::nullopt when the bank cannot
 * be expressed (arena over 2^31 elements, history wider than the
 * 32-bit lane math).
 */
std::optional<SimdBankState> buildSimdBank(
    std::vector<GsharePredictor> &bank);
std::optional<SimdBankState> buildSimdBank(
    std::vector<BiModePredictor> &bank);

namespace detail
{

/**
 * Records (once per process per distinct what/reason pair, at
 * verbose/debug level) that a bank fell back to the scalar loop, so
 * perf regressions from ineligible shapes are diagnosable instead of
 * invisible.
 *
 * @param what the bank's kind/shape, e.g. a predictor name()
 * @param reason why the SIMD flattening refused it
 */
void logSimdBankFallback(const std::string &what, const char *reason);

} // namespace detail

/** Catch-all: predictor kinds without a SIMD flattening run the
 *  scalar bank. */
template <typename Pred>
std::optional<SimdBankState>
buildSimdBank(std::vector<Pred> &bank)
{
    detail::logSimdBankFallback(
        bank.empty() ? "<empty bank>" : bank.front().name(),
        "kind has no SIMD flattening");
    return std::nullopt;
}

/** Stores arena state back into the predictors a buildSimdBank()
 *  overload flattened; @p bank must be the same bank. */
void storeSimdBank(const SimdBankState &state,
                   std::vector<GsharePredictor> &bank);
void storeSimdBank(const SimdBankState &state,
                   std::vector<BiModePredictor> &bank);

template <typename Pred>
void
storeSimdBank(const SimdBankState &, std::vector<Pred> &)
{
}

/**
 * Replays @p total branches (of which the first @p warmup train
 * without being scored) through @p state on the backend for
 * @p tier.
 *
 * @param pcs the packed branch addresses
 * @param words the packed taken bitmap
 * @return false when @p tier has no backend in this binary (the
 *         caller falls back to the scalar bank); Scalar and Auto
 *         always return false — resolve the tier first.
 */
bool runSimdBank(SimdBankState &state, KernelTier tier,
                 const std::uint64_t *pcs, const std::uint64_t *words,
                 std::size_t total, std::size_t warmup);

namespace detail
{

/** Per-ISA kernel entry points; each is defined in its own TU
 *  compiled with that ISA's flags (see src/sim/CMakeLists.txt). */
void simdBankReplayAvx2(SimdBankState &state, const std::uint64_t *pcs,
                        const std::uint64_t *words, std::size_t total,
                        std::size_t warmup);
void simdBankReplayAvx512(SimdBankState &state, const std::uint64_t *pcs,
                          const std::uint64_t *words, std::size_t total,
                          std::size_t warmup);
void simdBankReplayNeon(SimdBankState &state, const std::uint64_t *pcs,
                        const std::uint64_t *words, std::size_t total,
                        std::size_t warmup);

} // namespace detail

} // namespace bpsim

#endif // BPSIM_SIM_SIMD_SIMD_BANK_HH
