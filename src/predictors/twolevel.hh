/**
 * @file
 * The Yeh-Patt two-level adaptive predictor taxonomy.
 *
 * A two-level predictor keeps branch history in a first level
 * (a single global register, or a table of per-address registers)
 * and prediction counters in a second level. The second-level index
 * concatenates the history pattern with optional pc bits; pc bits in
 * the index partition the counters into multiple pattern history
 * tables (PHTs):
 *
 *   GAg(h)       global history, one PHT
 *   GAs(h, a)    global history, 2^a PHTs selected by pc bits
 *   PAg(h, l)    per-address history (2^l registers), one PHT
 *   PAs(h, l, a) per-address history, 2^a PHTs
 */

#ifndef BPSIM_PREDICTORS_TWOLEVEL_HH
#define BPSIM_PREDICTORS_TWOLEVEL_HH

#include <optional>

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** First-level history organization. */
enum class HistoryScope
{
    Global,
    PerAddress,
};

/** Configuration of a two-level predictor. */
struct TwoLevelConfig
{
    /** First-level organization. */
    HistoryScope scope = HistoryScope::Global;
    /** History register width (h). */
    unsigned historyBits = 8;
    /** pc bits concatenated above the history in the index (a);
     *  the second level holds 2^a PHTs of 2^h counters. */
    unsigned pcBits = 0;
    /** log2 of the per-address history table size (l); ignored for
     *  Global scope. */
    unsigned localEntriesLog2 = 0;
    /** Counter width in bits. */
    unsigned counterWidth = 2;
};

/** Generic two-level adaptive predictor covering GAg/GAs/PAg/PAs. */
class TwoLevelPredictor : public FastPredictorBase<TwoLevelPredictor>
{
  public:
    explicit TwoLevelPredictor(const TwoLevelConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** Second-level index for @p pc under the current history. */
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        // History fills the low bits; pc bits select the PHT above it.
        const std::uint64_t history = historyFor(pc);
        const std::uint64_t pht = pcIndexBits(pc, cfg.pcBits);
        return static_cast<std::size_t>(
            (pht << cfg.historyBits) | history);
    }

    /** Devirtualized hot path: the direction of predict(). The scope
     *  branch is perfectly predictable (fixed per instance), so one
     *  generic core serves all four taxonomy points. */
    bool
    predictFast(std::uint64_t pc) const
    {
        return counters.predictTaken(indexFor(pc));
    }

    /** Devirtualized hot path: the state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        counters.update(indexFor(pc), taken);
        pushHistory(pc, taken);
    }

    /** Fused hot path: predict + update sharing one second-level
     *  index; bit-identical to predictFast() then updateFast().
     *  Reports the serving counter (its PHT index) to @p hook. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const std::size_t index = indexFor(pc);
        hook.counter(index);
        const bool prediction = counters.predictTaken(index);
        counters.update(index, taken);
        pushHistory(pc, taken);
        return prediction;
    }

    const TwoLevelConfig &config() const { return cfg; }

    /** Mutable SoA views for the SIMD bank (sim/simd/simd_bank.cc),
     *  which copies counters and first-level history into vector
     *  lane state and back. localHistoryRef() is null for Global
     *  scope. */
    CounterTable &tableRef() { return counters; }
    HistoryRegister &globalHistoryRef() { return globalHistory; }
    LocalHistoryTable *
    localHistoryRef()
    {
        return localHistory ? &*localHistory : nullptr;
    }

  private:
    std::uint64_t
    historyFor(std::uint64_t pc) const
    {
        if (cfg.scope == HistoryScope::Global)
            return globalHistory.value();
        return localHistory->value(pc);
    }

    void
    pushHistory(std::uint64_t pc, bool taken)
    {
        if (cfg.scope == HistoryScope::Global)
            globalHistory.push(taken);
        else
            localHistory->push(pc, taken);
    }

    TwoLevelConfig cfg;
    HistoryRegister globalHistory;
    std::optional<LocalHistoryTable> localHistory;
    CounterTable counters;
};

/** Convenience constructors for the named taxonomy points. */
TwoLevelConfig makeGAg(unsigned historyBits);
TwoLevelConfig makeGAs(unsigned historyBits, unsigned pcBits);
TwoLevelConfig makePAg(unsigned historyBits, unsigned localEntriesLog2);
TwoLevelConfig makePAs(unsigned historyBits, unsigned localEntriesLog2,
                       unsigned pcBits);

} // namespace bpsim

#endif // BPSIM_PREDICTORS_TWOLEVEL_HH
