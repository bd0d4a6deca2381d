#include "sim/simd/simd_bank.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>

#include "core/bimode.hh"
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/filter.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/tournament.hh"
#include "predictors/twolevel.hh"
#include "predictors/yags.hh"
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
    for (auto *array :
         {&state.laneBase, &state.addrMask, &state.histShift,
          &state.histMask, &state.localBase, &state.localMask,
          &state.maxValue, &state.threshold, &state.wordShift,
          &state.slotIdxMask, &state.slotShift, &state.fieldMask,
          &state.choiceBase, &state.choiceAddrMask,
          &state.choiceMaxValue, &state.choiceThreshold,
          &state.bankStride, &state.alwaysChoiceMask,
          &state.bothBanksMask, &state.auxBase, &state.auxAddrMask,
          &state.auxMaxValue, &state.auxThreshold, &state.tagShift,
          &state.tagMask, &state.hashFieldMask, &state.foldShift,
          &state.hist}) {
        array->assign(padded, 0);
    }
    state.mispredictions.assign(lanes, 0);
}

/** Replicates lane 0's constants into the padding lanes so padded
 *  vector slots execute a valid (discarded) lane. */
void
padLanes(SimdBankState &state)
{
    for (auto *array :
         {&state.laneBase, &state.addrMask, &state.histShift,
          &state.histMask, &state.localBase, &state.localMask,
          &state.maxValue, &state.threshold, &state.wordShift,
          &state.slotIdxMask, &state.slotShift, &state.fieldMask,
          &state.choiceBase, &state.choiceAddrMask,
          &state.choiceMaxValue, &state.choiceThreshold,
          &state.bankStride, &state.alwaysChoiceMask,
          &state.bothBanksMask, &state.auxBase, &state.auxAddrMask,
          &state.auxMaxValue, &state.auxThreshold, &state.tagShift,
          &state.tagMask, &state.hashFieldMask, &state.foldShift,
          &state.hist}) {
        std::fill(array->begin() + state.lanes, array->end(),
                  array->front());
    }
}

/** Appends @p table's counters to the shared arena after a
 *  kSimdLaneStagger gap, recording the lane's base offset and
 *  counter constants. Packs into bit slots or widens one counter
 *  per word according to state.packed. */
void
appendCounters(SimdBankState &state, std::size_t lane,
               const CounterTable &table)
{
    state.maxValue[lane] = table.max();
    state.threshold[lane] = table.max() / 2;
    state.counters.resize(state.counters.size() + kSimdLaneStagger, 0);
    state.laneBase[lane] =
        static_cast<std::uint32_t>(state.counters.size());
    if (!state.packed) {
        state.counters.insert(state.counters.end(), table.data(),
                              table.data() + table.size());
        return;
    }
    // Slot width is the power of two >= the counter width (1..8
    // bits), so slot boundaries follow from plain shift/mask math and
    // a word always holds 4, 8, 16 or 32 whole counters.
    const unsigned slotLog2 = log2Ceil(table.bits());
    const unsigned perWordLog2 = 5 - slotLog2;
    state.wordShift[lane] = perWordLog2;
    state.slotIdxMask[lane] = mask32(perWordLog2);
    state.slotShift[lane] = slotLog2;
    state.fieldMask[lane] = mask32(1u << slotLog2);
    const std::size_t words =
        (table.size() + (std::size_t{1} << perWordLog2) - 1) >>
        perWordLog2;
    state.counters.resize(state.counters.size() + words, 0);
    std::uint32_t *dst = state.counters.data() + state.laneBase[lane];
    for (std::size_t e = 0; e < table.size(); ++e) {
        dst[e >> perWordLog2] |=
            static_cast<std::uint32_t>(table.data()[e])
            << ((e & state.slotIdxMask[lane]) << slotLog2);
    }
}

/**
 * Appends a further direction bank directly after @p lane's previous
 * one (appendCounters() must have run for the lane), returning the
 * appended bank's word distance from laneBase. Requires state.packed
 * and a table of the same geometry as the first bank, so the lane's
 * slot constants cover all banks — which also makes bank k land at
 * exactly k times the first returned stride.
 */
std::uint32_t
appendNextBank(SimdBankState &state, std::size_t lane,
               const CounterTable &table)
{
    const unsigned perWordLog2 = state.wordShift[lane];
    const unsigned slotLog2 = state.slotShift[lane];
    const std::size_t words =
        (table.size() + (std::size_t{1} << perWordLog2) - 1) >>
        perWordLog2;
    const std::size_t base = state.counters.size();
    const std::uint32_t stride =
        static_cast<std::uint32_t>(base - state.laneBase[lane]);
    state.counters.resize(base + words, 0);
    std::uint32_t *dst = state.counters.data() + base;
    for (std::size_t e = 0; e < table.size(); ++e) {
        dst[e >> perWordLog2] |=
            static_cast<std::uint32_t>(table.data()[e])
            << ((e & state.slotIdxMask[lane]) << slotLog2);
    }
    return stride;
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

/** Appends @p table as the lane's *second* pc-indexed stream in the
 *  choice arena (tournament's bimodal component), recording the aux
 *  base and counter constants. */
void
appendAuxCounters(SimdBankState &state, std::size_t lane,
                  const CounterTable &table)
{
    state.auxMaxValue[lane] = table.max();
    state.auxThreshold[lane] = table.max() / 2;
    state.choiceArena.resize(
        state.choiceArena.size() + kSimdLaneStagger, 0);
    state.auxBase[lane] =
        static_cast<std::uint32_t>(state.choiceArena.size());
    state.choiceArena.insert(state.choiceArena.end(), table.data(),
                             table.data() + table.size());
}

void
restoreAuxCounters(const SimdBankState &state, std::size_t lane,
                   CounterTable &table)
{
    const std::uint32_t *src =
        state.choiceArena.data() + state.auxBase[lane];
    for (std::size_t e = 0; e < table.size(); ++e)
        table.data()[e] = static_cast<std::uint16_t>(src[e]);
}

std::uint32_t
packYagsEntry(const YagsPredictor::CacheEntry &entry)
{
    return (entry.valid ? kYagsValidBit : 0u) |
           (static_cast<std::uint32_t>(entry.tag) << kYagsTagShift) |
           entry.counter;
}

/** Restores a packed table whose lane region starts @p wordOffset
 *  words past laneBase (the bi-mode taken bank at bankStride). */
void
restoreCounters(const SimdBankState &state, std::size_t lane,
                CounterTable &table, std::size_t wordOffset = 0)
{
    const std::uint32_t *src = state.counters.data() +
                               state.laneBase[lane] + wordOffset;
    if (!state.packed) {
        // Counter values fit their (<= 8-bit) saturation value, so
        // the narrowing is lossless.
        for (std::size_t e = 0; e < table.size(); ++e)
            table.data()[e] = static_cast<std::uint16_t>(src[e]);
        return;
    }
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
buildSimdBank(std::vector<BimodalPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    for (BimodalPredictor &p : bank)
        totalCounters += p.table().size();
    if (totalCounters > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    initLaneArrays(state, bank.size());
    state.counters.reserve(totalCounters);
    for (std::size_t l = 0; l < bank.size(); ++l) {
        appendCounters(state, l, bank[l].table());
        state.addrMask[l] = mask32(bank[l].indexBitCount());
        // histShift/histMask/hist stay 0: the history term of the
        // unified index formula degenerates away and the per-branch
        // shift keeps hist at 0.
    }
    padLanes(state);
    return state;
}

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
    state.packed = true;
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
buildSimdBank(std::vector<TwoLevelPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    const HistoryScope scope = bank.front().config().scope;
    std::uint64_t totalCounters = staggerElements(bank.size());
    std::uint64_t totalLocal = staggerElements(bank.size());
    for (TwoLevelPredictor &p : bank) {
        const TwoLevelConfig &cfg = p.config();
        // The kernel instantiates one history flavor per bank; a
        // mixed-scope bank (which fusion keys never produce) runs
        // scalar.
        if (cfg.scope != scope) {
            detail::logSimdBankFallback(p.name(),
                                        "mixed history scopes");
            return std::nullopt;
        }
        // Constructors cap historyBits + pcBits at 28 via the table
        // size; enforce the lane-math limits independently.
        if (cfg.historyBits + cfg.pcBits > 31) {
            detail::logSimdBankFallback(
                p.name(), "index wider than the 32-bit lane math");
            return std::nullopt;
        }
        totalCounters += p.tableRef().size();
        if (scope == HistoryScope::PerAddress) {
            if (cfg.localEntriesLog2 > 28) {
                detail::logSimdBankFallback(
                    p.name(),
                    "local-history table wider than the lane math");
                return std::nullopt;
            }
            totalLocal += p.localHistoryRef()->entries();
        }
    }
    if (totalCounters > kMaxArenaElements ||
        totalLocal > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.localHistory = scope == HistoryScope::PerAddress;
    state.packed = true;
    initLaneArrays(state, bank.size());
    state.localHist.reserve(totalLocal);
    for (std::size_t l = 0; l < bank.size(); ++l) {
        const TwoLevelConfig &cfg = bank[l].config();
        appendCounters(state, l, bank[l].tableRef());
        state.addrMask[l] = mask32(cfg.pcBits);
        state.histShift[l] = cfg.historyBits;
        state.histMask[l] = mask32(cfg.historyBits);
        if (scope == HistoryScope::Global) {
            state.hist[l] = static_cast<std::uint32_t>(
                bank[l].globalHistoryRef().value());
        } else {
            const LocalHistoryTable &local =
                *bank[l].localHistoryRef();
            state.localHist.resize(
                state.localHist.size() + kSimdLaneStagger, 0);
            state.localBase[l] =
                static_cast<std::uint32_t>(state.localHist.size());
            state.localMask[l] = mask32(local.entriesLog2());
            for (std::size_t e = 0; e < local.entries(); ++e) {
                // historyBits <= 28, so the uint64 registers narrow
                // to uint32 losslessly.
                state.localHist.push_back(
                    static_cast<std::uint32_t>(local.data()[e]));
            }
        }
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
        // Unpacked upper bound on the packed direction words, like
        // the other packed builders.
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
    state.packed = true;
    state.choiceKind = SimdChoiceKind::BiMode;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        BiModePredictor &p = bank[l];
        const BiModeConfig &cfg = p.config();
        // Not-taken bank at laneBase, taken bank bankStride words
        // after it, matching the kernel's choice-sign blend.
        appendCounters(state, l,
                       p.bankRef(BiModePredictor::kNotTakenBank));
        state.bankStride[l] = appendNextBank(
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

std::optional<SimdBankState>
buildSimdBank(std::vector<AgreePredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    std::uint64_t totalChoice = staggerElements(bank.size());
    for (AgreePredictor &p : bank) {
        // Constructor-capped at the (<= 28 bit) index width; enforce
        // the lane math independently.
        if (p.config().historyBits > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        totalCounters += p.tableRef().size();
        totalChoice += p.biasBitRef().size();
    }
    if (totalCounters > kMaxArenaElements ||
        totalChoice > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.packed = true;
    state.choiceKind = SimdChoiceKind::Agree;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        AgreePredictor &p = bank[l];
        const AgreeConfig &cfg = p.config();
        appendCounters(state, l, p.tableRef());
        // The biasing state packs into one choice word per entry:
        // bit 0 = valid, bit 1 = the biasing bit (simd_bank.hh).
        state.choiceArena.resize(
            state.choiceArena.size() + kSimdLaneStagger, 0);
        state.choiceBase[l] =
            static_cast<std::uint32_t>(state.choiceArena.size());
        const std::vector<std::uint16_t> &bias = p.biasBitRef();
        const std::vector<std::uint16_t> &valid = p.biasValidRef();
        for (std::size_t e = 0; e < bias.size(); ++e) {
            state.choiceArena.push_back(
                valid[e] ? (1u | (bias[e] ? 2u : 0u)) : 0u);
        }
        state.addrMask[l] = mask32(cfg.indexBits);
        state.histMask[l] = mask32(cfg.historyBits);
        state.choiceAddrMask[l] = mask32(cfg.biasIndexBits);
        state.hist[l] =
            static_cast<std::uint32_t>(p.historyRef().value());
    }
    padLanes(state);
    return state;
}

std::optional<SimdBankState>
buildSimdBank(std::vector<TournamentPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    // Two pc-indexed streams (meta + bimodal) share the choice
    // arena, each behind its own stagger gap.
    std::uint64_t totalChoice = 2 * staggerElements(bank.size());
    for (TournamentPredictor &p : bank) {
        BimodalPredictor *bimodal = p.bimodalComponentPtr();
        GsharePredictor *gshare = p.gshareComponentPtr();
        // Only the standard bimodal+gshare pairing has a flattening;
        // custom component pairs step through virtual dispatch and
        // stay on the scalar bank.
        if (!bimodal || !gshare) {
            detail::logSimdBankFallback(
                p.name(), "non-standard component pairing");
            return std::nullopt;
        }
        // Constructor-capped at the (<= 28 bit) index width; enforce
        // the lane math independently.
        if (gshare->historyBitCount() > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        totalCounters += gshare->tableRef().size();
        totalChoice += p.metaTableRef().size() +
                       bimodal->tableRef().size();
    }
    if (totalCounters > kMaxArenaElements ||
        totalChoice > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.packed = true;
    state.choiceKind = SimdChoiceKind::Tournament;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        TournamentPredictor &p = bank[l];
        GsharePredictor &gshare = *p.gshareComponentPtr();
        BimodalPredictor &bimodal = *p.bimodalComponentPtr();
        // gshare is the packed direction arena; the meta table rides
        // the choice constants and the bimodal table the aux
        // constants, both unpacked in the choice arena (pc-indexed
        // streams re-touch words; packing would stall
        // scatter-to-gather forwarding).
        appendCounters(state, l, gshare.tableRef());
        state.addrMask[l] = mask32(gshare.indexBitCount());
        state.histMask[l] = mask32(gshare.historyBitCount());
        state.hist[l] = static_cast<std::uint32_t>(
            gshare.historyRef().value());
        appendChoiceCounters(state, l, p.metaTableRef());
        state.choiceAddrMask[l] = mask32(p.metaIndexBitCount());
        appendAuxCounters(state, l, bimodal.tableRef());
        state.auxAddrMask[l] = mask32(bimodal.indexBitCount());
    }
    padLanes(state);
    return state;
}

std::optional<SimdBankState>
buildSimdBank(std::vector<GskewPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    for (GskewPredictor &p : bank) {
        const GskewConfig &cfg = p.config();
        // The skew hashes mix a (bankIndexBits + 8)-bit address field
        // with up to (historyBits + 1) bits of shifted history in
        // 32-bit lanes. Capping the field at 31 bits and the history
        // at 29 keeps the bank-2 add (address + (history << 1))
        // below 2^32, so the lane add matches the scalar 64-bit sum
        // exactly; the fold shift also needs 0 < n < 32.
        if (cfg.bankIndexBits == 0 || cfg.bankIndexBits > 23) {
            detail::logSimdBankFallback(
                p.name(),
                "hash address field outside the 32-bit lane math");
            return std::nullopt;
        }
        if (cfg.historyBits > 29) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        // Unpacked upper bound on the packed bank words, like the
        // other packed builders.
        totalCounters += 3 * p.bankRef(0).size();
    }
    if (totalCounters > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.packed = true;
    state.choiceKind = SimdChoiceKind::Gskew;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        GskewPredictor &p = bank[l];
        const GskewConfig &cfg = p.config();
        // The three equal-geometry banks sit back to back: bank 1 at
        // bankStride words past bank 0, bank 2 at twice that.
        appendCounters(state, l, p.bankRef(0));
        state.bankStride[l] = appendNextBank(state, l, p.bankRef(1));
        appendNextBank(state, l, p.bankRef(2));
        state.addrMask[l] = mask32(cfg.bankIndexBits);
        state.hashFieldMask[l] = mask32(cfg.bankIndexBits + 8);
        state.foldShift[l] = cfg.bankIndexBits;
        state.histMask[l] = mask32(cfg.historyBits);
        state.hist[l] =
            static_cast<std::uint32_t>(p.historyRef().value());
        if (!cfg.partialUpdate)
            state.bothBanksMask[l] = ~std::uint32_t{0};
        state.foldRounds = std::max<std::uint32_t>(
            state.foldRounds,
            (64 + cfg.bankIndexBits - 1) / cfg.bankIndexBits);
    }
    padLanes(state);
    return state;
}

std::optional<SimdBankState>
buildSimdBank(std::vector<YagsPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    std::uint64_t totalChoice = staggerElements(bank.size());
    for (YagsPredictor &p : bank) {
        const YagsConfig &cfg = p.config();
        // Constructor-capped at the (<= 28 bit) cache index width;
        // enforce the lane math independently.
        if (cfg.historyBits > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        // The scalar tag comes from 64-bit word-address bits
        // [cacheIndexBits, cacheIndexBits + tagBits); the kernel only
        // carries the low 32 address bits per lane.
        if (cfg.cacheIndexBits + cfg.tagBits > 32) {
            detail::logSimdBankFallback(
                p.name(), "tag field above the 32-bit lane math");
            return std::nullopt;
        }
        totalCounters += 2 * p.cacheRef(0).size();
        totalChoice += p.choiceTableRef().size();
    }
    if (totalCounters > kMaxArenaElements ||
        totalChoice > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    // One whole cache entry per arena word (kYagsCounterMask layout):
    // the probe gathers valid+tag+counter in one load and allocation
    // rewrites the word wholesale, so the packed slot math never
    // applies.
    state.choiceKind = SimdChoiceKind::Yags;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        YagsPredictor &p = bank[l];
        const YagsConfig &cfg = p.config();
        state.maxValue[l] = mask32(cfg.counterWidth);
        state.threshold[l] = state.maxValue[l] / 2;
        state.counters.resize(
            state.counters.size() + kSimdLaneStagger, 0);
        state.laneBase[l] =
            static_cast<std::uint32_t>(state.counters.size());
        // Not-taken cache at laneBase, taken cache bankStride words
        // after it; the kernel consults the cache *opposite* the
        // choice direction (yags.hh), so the stride add is masked by
        // ~choice.
        for (std::uint32_t cache = 0; cache < 2; ++cache) {
            if (cache == YagsPredictor::kTakenCache) {
                state.bankStride[l] = static_cast<std::uint32_t>(
                    state.counters.size() - state.laneBase[l]);
            }
            for (const YagsPredictor::CacheEntry &entry :
                 p.cacheRef(cache))
                state.counters.push_back(packYagsEntry(entry));
        }
        appendChoiceCounters(state, l, p.choiceTableRef());
        state.choiceAddrMask[l] = mask32(cfg.choiceIndexBits);
        state.addrMask[l] = mask32(cfg.cacheIndexBits);
        state.tagShift[l] = cfg.cacheIndexBits;
        state.tagMask[l] = mask32(cfg.tagBits);
        state.histMask[l] = mask32(cfg.historyBits);
        state.hist[l] =
            static_cast<std::uint32_t>(p.historyRef().value());
    }
    padLanes(state);
    return state;
}

std::optional<SimdBankState>
buildSimdBank(std::vector<FilterPredictor> &bank)
{
    if (bank.empty())
        return std::nullopt;
    std::uint64_t totalCounters = staggerElements(bank.size());
    std::uint64_t totalChoice = staggerElements(bank.size());
    for (FilterPredictor &p : bank) {
        // Constructor-capped at the (<= 28 bit) PHT index width;
        // enforce the lane math independently.
        if (p.config().historyBits > 31) {
            detail::logSimdBankFallback(
                p.name(), "history wider than the 32-bit lane math");
            return std::nullopt;
        }
        totalCounters += p.phtRef().size();
        totalChoice += p.filterRef().size();
    }
    if (totalCounters > kMaxArenaElements ||
        totalChoice > kMaxArenaElements) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.packed = true;
    state.choiceKind = SimdChoiceKind::Filter;
    initLaneArrays(state, bank.size());
    for (std::size_t l = 0; l < bank.size(); ++l) {
        FilterPredictor &p = bank[l];
        const FilterConfig &cfg = p.config();
        appendCounters(state, l, p.phtRef());
        state.addrMask[l] = mask32(cfg.indexBits);
        state.histMask[l] = mask32(cfg.historyBits);
        state.hist[l] =
            static_cast<std::uint32_t>(p.historyRef().value());
        // Filter entries pack into one choice word each: direction
        // in bit 0, run length from bit 1 (runs are <= 8 bits). The
        // saturation value rides choiceMaxValue.
        state.choiceArena.resize(
            state.choiceArena.size() + kSimdLaneStagger, 0);
        state.choiceBase[l] =
            static_cast<std::uint32_t>(state.choiceArena.size());
        for (const FilterPredictor::FilterEntry &entry : p.filterRef()) {
            state.choiceArena.push_back(
                (entry.direction ? 1u : 0u) |
                (static_cast<std::uint32_t>(entry.runLength) << 1));
        }
        state.choiceAddrMask[l] = mask32(cfg.filterIndexBits);
        state.choiceMaxValue[l] = p.runSaturationValue();
    }
    padLanes(state);
    return state;
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<BimodalPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l)
        restoreCounters(state, l, bank[l].tableRef());
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
              std::vector<TwoLevelPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        restoreCounters(state, l, bank[l].tableRef());
        if (!state.localHistory) {
            bank[l].globalHistoryRef().setValue(state.hist[l]);
            continue;
        }
        LocalHistoryTable &local = *bank[l].localHistoryRef();
        const std::uint32_t *src =
            state.localHist.data() + state.localBase[l];
        for (std::size_t e = 0; e < local.entries(); ++e)
            local.data()[e] = src[e];
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

void
storeSimdBank(const SimdBankState &state,
              std::vector<AgreePredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        AgreePredictor &p = bank[l];
        restoreCounters(state, l, p.tableRef());
        const std::uint32_t *src =
            state.choiceArena.data() + state.choiceBase[l];
        std::vector<std::uint16_t> &bias = p.biasBitRef();
        std::vector<std::uint16_t> &valid = p.biasValidRef();
        for (std::size_t e = 0; e < bias.size(); ++e) {
            valid[e] = static_cast<std::uint16_t>(src[e] & 1u);
            bias[e] = static_cast<std::uint16_t>((src[e] >> 1) & 1u);
        }
        p.historyRef().setValue(state.hist[l]);
    }
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<TournamentPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        TournamentPredictor &p = bank[l];
        GsharePredictor &gshare = *p.gshareComponentPtr();
        restoreCounters(state, l, gshare.tableRef());
        gshare.historyRef().setValue(state.hist[l]);
        restoreChoiceCounters(state, l, p.metaTableRef());
        restoreAuxCounters(state, l,
                           p.bimodalComponentPtr()->tableRef());
    }
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<GskewPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        GskewPredictor &p = bank[l];
        restoreCounters(state, l, p.bankRef(0));
        restoreCounters(state, l, p.bankRef(1), state.bankStride[l]);
        restoreCounters(state, l, p.bankRef(2),
                        2 * static_cast<std::size_t>(
                                state.bankStride[l]));
        p.historyRef().setValue(state.hist[l]);
    }
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<YagsPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        YagsPredictor &p = bank[l];
        const std::uint32_t *src =
            state.counters.data() + state.laneBase[l];
        for (std::uint32_t cache = 0; cache < 2; ++cache) {
            for (YagsPredictor::CacheEntry &entry : p.cacheRef(cache)) {
                const std::uint32_t word = *src++;
                entry.valid = (word & kYagsValidBit) != 0;
                entry.tag = static_cast<std::uint16_t>(
                    (word >> kYagsTagShift) & 0xFFFFu);
                entry.counter = static_cast<std::uint16_t>(
                    word & kYagsCounterMask);
            }
        }
        restoreChoiceCounters(state, l, p.choiceTableRef());
        p.historyRef().setValue(state.hist[l]);
    }
}

void
storeSimdBank(const SimdBankState &state,
              std::vector<FilterPredictor> &bank)
{
    for (std::size_t l = 0; l < bank.size(); ++l) {
        FilterPredictor &p = bank[l];
        restoreCounters(state, l, p.phtRef());
        const std::uint32_t *src =
            state.choiceArena.data() + state.choiceBase[l];
        for (FilterPredictor::FilterEntry &entry : p.filterRef()) {
            const std::uint32_t word = *src++;
            entry.direction = static_cast<std::uint16_t>(word & 1u);
            entry.runLength = static_cast<std::uint16_t>(word >> 1);
        }
        p.historyRef().setValue(state.hist[l]);
    }
}

} // namespace bpsim
