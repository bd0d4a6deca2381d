/**
 * @file
 * The filtering predictor (Chang, Evers & Patt, "Improving Branch
 * Prediction Accuracy by Reducing Pattern History Table
 * Interference", PACT 1996) — the third de-aliasing proposal the
 * paper cites in §2.1, alongside agree and gskew.
 *
 * Observation: most dynamic branches come from strongly biased
 * static branches that a trivial per-branch mechanism predicts
 * perfectly; letting them into the shared PHT only creates
 * interference for the branches that genuinely need history. The
 * filter is a per-branch saturating run counter (in hardware, rides
 * in the BTB entry): once a branch has gone the same direction
 * enough consecutive times, that direction predicts it and the
 * branch neither consults nor updates the gshare PHT.
 */

#ifndef BPSIM_PREDICTORS_FILTER_HH
#define BPSIM_PREDICTORS_FILTER_HH

#include <vector>

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** Filtering predictor configuration. */
struct FilterConfig
{
    /** log2 of the PHT size (gshare-indexed). */
    unsigned indexBits = 10;
    /** Global history length, <= indexBits. */
    unsigned historyBits = 10;
    /** log2 of the filter (per-branch) table size. */
    unsigned filterIndexBits = 10;
    /** Width of the run counter; saturation engages the filter. */
    unsigned filterCounterBits = 6;
    /** PHT counter width. */
    unsigned counterWidth = 2;
};

/** PHT-interference-filtering gshare. */
class FilterPredictor : public FastPredictorBase<FilterPredictor>
{
  public:
    explicit FilterPredictor(const FilterConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** True when the branch at @p pc is currently filtered. */
    bool isFiltered(std::uint64_t pc) const;

    /** PHT index for @p pc under the current history. */
    std::size_t
    phtIndexFor(std::uint64_t pc) const
    {
        const std::uint64_t address = pcIndexBits(pc, cfg.indexBits);
        return static_cast<std::size_t>(address ^ history.value());
    }

    /** Filter-table index for @p pc. */
    std::size_t
    filterIndexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            pcIndexBits(pc, cfg.filterIndexBits));
    }

    /** Devirtualized hot path: the direction of predict(). */
    bool
    predictFast(std::uint64_t pc) const
    {
        const FilterEntry &entry = filter[filterIndexFor(pc)];
        if (entry.runLength == runSaturation)
            return entry.direction != 0;
        return pht.predictTaken(phtIndexFor(pc));
    }

    /** Devirtualized hot path: the state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        (void)stepFast(pc, taken);
    }

    /**
     * Fused hot path: predict + update sharing the filter-entry
     * lookup and one PHT index; bit-identical to predictFast() then
     * updateFast(). A filtered branch bypasses the PHT on both
     * sides, so the fused path touches the PHT at most once.
     * @p hook hears the PHT index, or pht.size() + the filter index
     * when the filter served.
     */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        // One shared word-address extraction feeds both table
        // indices: each is a mask (plus the PHT history xor) away,
        // instead of filterIndexFor/phtIndexFor re-deriving pc >> 2
        // for themselves.
        const std::uint64_t word = pc >> 2;
        const std::size_t filter_index =
            static_cast<std::size_t>(word & maskBits(cfg.filterIndexBits));
        FilterEntry &entry = filter[filter_index];
        const bool was_filtered = entry.runLength == runSaturation;
        bool prediction;
        if (was_filtered) {
            hook.counter(pht.size() + filter_index);
            prediction = entry.direction != 0;
        } else {
            // Only unfiltered branches touch the PHT — that is the
            // whole interference-reduction mechanism.
            const std::size_t index = static_cast<std::size_t>(
                (word & maskBits(cfg.indexBits)) ^ history.value());
            hook.counter(index);
            prediction = pht.predictTaken(index);
            pht.update(index, taken);
        }
        if ((entry.direction != 0) == taken) {
            if (entry.runLength < runSaturation)
                ++entry.runLength;
        } else {
            // Direction change: restart the run.
            entry.direction = taken ? 1 : 0;
            entry.runLength = 1;
        }
        history.push(taken);
        return prediction;
    }

    struct FilterEntry
    {
        /** Direction of the current run (1 = taken). uint16 rather
         *  than uint8 for the same aliasing reason as CounterTable:
         *  unsigned-char stores would defeat type-based alias
         *  analysis in the inlined replay kernel. */
        std::uint16_t direction = 0;
        /** Consecutive same-direction outcomes, saturating. */
        std::uint16_t runLength = 0;
    };

    const FilterConfig &config() const { return cfg; }
    std::uint16_t runSaturationValue() const { return runSaturation; }

    /** @name Mutable SoA views for the SIMD bank
     *  (sim/simd/simd_bank.cc), which packs each filter entry into
     *  one arena word (direction | runLength << 1) and back. */
    /**@{*/
    CounterTable &phtRef() { return pht; }
    std::vector<FilterEntry> &filterRef() { return filter; }
    HistoryRegister &historyRef() { return history; }
    /**@}*/

  private:
    FilterConfig cfg;
    std::uint16_t runSaturation;
    HistoryRegister history;
    CounterTable pht;
    std::vector<FilterEntry> filter;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_FILTER_HH
