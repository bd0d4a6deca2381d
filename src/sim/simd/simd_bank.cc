#include "sim/simd/simd_bank.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>

#include "core/bimode.hh"
#include "predictors/gshare.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

/** Gather/scatter element offsets are consumed as *signed* 32-bit
 *  lane values by vpgatherdd and friends, so the whole arena
 *  (including the per-lane stagger gaps) must index below 2^31. */
constexpr std::uint64_t kMaxArenaElements =
    static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());

/** Arena elements the stagger gaps add for a bank of @p lanes. */
std::uint64_t
staggerElements(std::size_t lanes)
{
    return static_cast<std::uint64_t>(lanes) * kSimdLaneStagger;
}

std::uint32_t
mask32(unsigned bits)
{
    return static_cast<std::uint32_t>(maskBits(bits));
}

/** Every padded per-lane array of @p state (see SimdBankState). */
std::array<std::vector<std::uint32_t> *, 17>
laneArrays(SimdBankState &state)
{
    return {&state.laneBase,       &state.addrMask,
            &state.histMask,       &state.maxValue,
            &state.threshold,      &state.wordShift,
            &state.slotIdxMask,    &state.slotShift,
            &state.fieldMask,      &state.choiceBase,
            &state.choiceAddrMask, &state.choiceMaxValue,
            &state.choiceThreshold, &state.bankStride,
            &state.alwaysChoiceMask, &state.bothBanksMask,
            &state.hist};
}

/**
 * Sizes the shared per-lane arrays of @p state for @p lanes lanes
 * (padded to the widest group, see SimdBankState) and zero-fills
 * them. Lane constants are filled by the per-kind builders; the
 * padding replication happens afterwards in padLanes().
 */
void
initLaneArrays(SimdBankState &state, std::size_t lanes)
{
    state.lanes = lanes;
    const std::size_t padded =
        (lanes + kMaxSimdGroupLanes - 1) / kMaxSimdGroupLanes *
        kMaxSimdGroupLanes;
    for (auto *array : laneArrays(state))
        array->assign(padded, 0);
    state.mispredictions.assign(lanes, 0);
}

/** Replicates lane 0's constants into the padding lanes so padded
 *  vector slots execute a valid (discarded) lane. */
void
padLanes(SimdBankState &state)
{
    for (auto *array : laneArrays(state)) {
        std::fill(array->begin() + state.lanes, array->end(),
                  array->front());
    }
}

/**
 * Packs @p table into bit slots at the end of the counter arena with
 * @p lane's slot constants, returning its word distance from the
 * lane's base. A lane's second bank (bi-mode's taken bank) must have
 * the first bank's geometry, so the slot constants cover both.
 */
std::uint32_t
appendBank(SimdBankState &state, std::size_t lane,
           const CounterTable &table)
{
    const unsigned perWordLog2 = state.wordShift[lane];
    const unsigned slotLog2 = state.slotShift[lane];
    const std::size_t words =
        (table.size() + (std::size_t{1} << perWordLog2) - 1) >>
        perWordLog2;
    const std::size_t base = state.counters.size();
    state.counters.resize(base + words, 0);
    std::uint32_t *dst = state.counters.data() + base;
    for (std::size_t e = 0; e < table.size(); ++e) {
        dst[e >> perWordLog2] |=
            static_cast<std::uint32_t>(table.data()[e])
            << ((e & state.slotIdxMask[lane]) << slotLog2);
    }
    return static_cast<std::uint32_t>(base - state.laneBase[lane]);
}

/** Starts @p lane's counter region after a kSimdLaneStagger gap,
 *  records its base offset and counter constants, and packs
 *  @p table there as the lane's first bank. */
void
appendCounters(SimdBankState &state, std::size_t lane,
               const CounterTable &table)
{
    state.maxValue[lane] = table.max();
    state.threshold[lane] = table.max() / 2;
    state.counters.resize(state.counters.size() + kSimdLaneStagger, 0);
    state.laneBase[lane] =
        static_cast<std::uint32_t>(state.counters.size());
    // Slot width is the power of two >= the counter width (1..8
    // bits), so slot boundaries follow from plain shift/mask math and
    // a word always holds 4, 8, 16 or 32 whole counters.
    const unsigned slotLog2 = log2Ceil(table.bits());
    const unsigned perWordLog2 = 5 - slotLog2;
    state.wordShift[lane] = perWordLog2;
    state.slotIdxMask[lane] = mask32(perWordLog2);
    state.slotShift[lane] = slotLog2;
    state.fieldMask[lane] = mask32(1u << slotLog2);
    appendBank(state, lane, table);
}

/** Appends @p table to the choice arena (one counter per word, see
 *  SimdBankState::choiceArena) after a stagger gap, recording the
 *  lane's choice base and counter constants. */
void
appendChoiceCounters(SimdBankState &state, std::size_t lane,
                     const CounterTable &table)
{
    state.choiceMaxValue[lane] = table.max();
    state.choiceThreshold[lane] = table.max() / 2;
    state.choiceArena.resize(
        state.choiceArena.size() + kSimdLaneStagger, 0);
    state.choiceBase[lane] =
        static_cast<std::uint32_t>(state.choiceArena.size());
    state.choiceArena.insert(state.choiceArena.end(), table.data(),
                             table.data() + table.size());
}

void
restoreChoiceCounters(const SimdBankState &state, std::size_t lane,
                      CounterTable &table)
{
    const std::uint32_t *src =
        state.choiceArena.data() + state.choiceBase[lane];
    for (std::size_t e = 0; e < table.size(); ++e)
        table.data()[e] = static_cast<std::uint16_t>(src[e]);
}

/** Restores a packed table whose lane region starts @p wordOffset
 *  words past laneBase (the bi-mode taken bank at bankStride). */
void
restoreCounters(const SimdBankState &state, std::size_t lane,
                CounterTable &table, std::size_t wordOffset = 0)
{
    const std::uint32_t *src = state.counters.data() +
                               state.laneBase[lane] + wordOffset;
    const unsigned perWordLog2 = state.wordShift[lane];
    const unsigned slotLog2 = state.slotShift[lane];
    for (std::size_t e = 0; e < table.size(); ++e) {
        table.data()[e] = static_cast<std::uint16_t>(
            (src[e >> perWordLog2] >>
             ((e & state.slotIdxMask[lane]) << slotLog2)) &
            state.fieldMask[lane]);
    }
}

} // namespace

namespace detail
{

void
logSimdBankFallback(const std::string &what, const char *reason)
{
    static std::mutex mutex;
    static std::set<std::string> seen;
    std::lock_guard<std::mutex> lock(mutex);
    if (!seen.insert(what + '|' + reason).second)
        return;
    BPSIM_INFORM("SIMD bank fallback: " << what
                 << " runs the scalar bank (" << reason << ")");
}

} // namespace detail

std::optional<SimdBankState>
buildSimdBank(std::vector<GsharePredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    for (GsharePredictor &p : bank) {
        totalCounters += p.tableRef().size();
        // The constructor caps history at the (<= 28 bit) index
        // width, but the 32-bit lane math is a hard requirement:
        // refuse rather than truncate if that ever loosens.
        if (p.historyBitCount() > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
    }
    if (totalCounters > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        appendCounters(state, l, bank[l].tableRef());
        state.addrMask[l] = mask32(bank[l].indexBitCount());
        state.histMask[l] = mask32(bank[l].historyBitCount());
        state.hist[l] = static_cast<std::uint32_t>(
            bank[l].historyRef().value());
    }
    padLanes(state);
    return state;
}

std::optional<SimdBankState>
buildSimdBank(std::vector<BiModePredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    std::uint64_t totalChoice = staggerElements(bank.size());
    for (BiModePredictor &p : bank) {
        const BiModeConfig &cfg = p.config();
        // The constructor caps history at the (<= 28 bit) direction
        // index width; enforce the 32-bit lane math independently.
        if (cfg.historyBits > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        // Unpacked upper bound on the packed direction words, as
        // for gshare.
        totalCounters += p.takenBank().size() + p.notTakenBank().size();
        totalChoice += p.choiceTable().size();
    }
    if (totalCounters > kMaxArenaElements ||
        totalChoice > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.choiceKind = SimdChoiceKind::BiMode;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        BiModePredictor &p = bank[l];
        const BiModeConfig &cfg = p.config();
        // Not-taken bank at laneBase, taken bank bankStride words
        // after it, matching the kernel's choice-sign blend.
        appendCounters(state, l,
                       p.bankRef(BiModePredictor::kNotTakenBank));
        state.bankStride[l] = appendBank(
            state, l, p.bankRef(BiModePredictor::kTakenBank));
        appendChoiceCounters(state, l, p.choiceTableRef());
        state.addrMask[l] = mask32(cfg.directionIndexBits);
        state.histMask[l] = mask32(cfg.historyBits);
        state.choiceAddrMask[l] = mask32(cfg.choiceIndexBits);
        state.hist[l] =
            static_cast<std::uint32_t>(p.historyRef().value());
        if (cfg.alwaysUpdateChoice)
            state.alwaysChoiceMask[l] = ~std::uint32_t{0};
        if (!cfg.partialUpdate) {
            state.bothBanksMask[l] = ~std::uint32_t{0};
            state.updateBothBanks = true;
        }
    }
    padLanes(state);
    return state;
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<GsharePredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        restoreCounters(state, l, bank[l].tableRef());
        bank[l].historyRef().setValue(state.hist[l]);
    }
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<BiModePredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        BiModePredictor &p = bank[l];
        restoreCounters(state, l,
                        p.bankRef(BiModePredictor::kNotTakenBank));
        restoreCounters(state, l,
                        p.bankRef(BiModePredictor::kTakenBank),
                        state.bankStride[l]);
        restoreChoiceCounters(state, l, p.choiceTableRef());
        p.historyRef().setValue(state.hist[l]);
    }
}

} // namespace bpsim
