/**
 * @file
 * The McFarling combining (tournament) predictor ("Combining Branch
 * Predictors", WRL TN-36, 1993): two component predictors plus a
 * pc-indexed meta table of 2-bit counters that learns, per branch,
 * which component to trust. The Alpha 21264 shipped this structure.
 *
 * Included as an extension baseline: the bi-mode choice predictor is
 * a close cousin of the meta table, but selects between two *banks
 * of counters* rather than two *predictors*.
 */

#ifndef BPSIM_PREDICTORS_TOURNAMENT_HH
#define BPSIM_PREDICTORS_TOURNAMENT_HH

#include "predictors/bimodal.hh"
#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/gshare.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** Meta-selected bimodal + gshare pair. */
class TournamentPredictor : public FastPredictorBase<TournamentPredictor>
{
  public:
    /**
     * Standard configuration: bimodal and full-history gshare
     * components of 2^n counters each (2^(n+1) together) plus the
     * meta table of 2^n.
     */
    explicit TournamentPredictor(unsigned indexBits);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;

    /** Bimodal counters first, then gshare's, offset past them. */
    std::uint64_t directionCounters() const override;

    /**
     * Devirtualized hot path: both components predict and train, and
     * the meta counter picks which prediction to return. The
     * components are state-independent of each other and of the meta
     * table, so stepping them in place cannot reorder any visible
     * state transition. @p hook hears the selected component's
     * counter, gshare's offset past the bimodal table.
     */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        // One shared word-address extraction feeds the meta index
        // and both component indices: each is a mask (plus the
        // gshare history xor) away, instead of every component call
        // re-deriving pc >> 2 for itself.
        const std::uint64_t word = pc >> 2;
        const std::size_t meta_index =
            static_cast<std::size_t>(word & maskBits(metaIndexBits));
        const bool use_second = meta.predictTaken(meta_index);
        CounterTable &bimodal_table = bimodal.tableRef();
        const std::size_t bimodal_index = static_cast<std::size_t>(
            word & maskBits(bimodal.indexBitCount()));
        CounterTable &gshare_table = gshare.tableRef();
        HistoryRegister &gshare_history = gshare.historyRef();
        const std::size_t gshare_index = static_cast<std::size_t>(
            (word & maskBits(gshare.indexBitCount())) ^
            gshare_history.value());
        hook.counter(use_second ? bimodal_table.size() + gshare_index
                                : bimodal_index);
        const bool p0 = bimodal_table.predictTaken(bimodal_index);
        bimodal_table.update(bimodal_index, taken);
        const bool p1 = gshare_table.predictTaken(gshare_index);
        gshare_table.update(gshare_index, taken);
        gshare_history.push(taken);
        // Train the meta table only when the components disagree,
        // toward whichever was right.
        if (p0 != p1)
            meta.update(meta_index, p1 == taken);
        return use_second ? p1 : p0;
    }

    /** Mutable meta-table view for tests. */
    CounterTable &metaTableRef() { return meta; }

  private:
    /** Component 0, selected while the meta counter says not-taken. */
    BimodalPredictor bimodal;
    /** Component 1, selected while the meta counter says taken. */
    GsharePredictor gshare;
    unsigned metaIndexBits;
    CounterTable meta;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_TOURNAMENT_HH
