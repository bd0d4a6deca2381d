/**
 * @file
 * The bimodal predictor: a pc-indexed table of saturating counters
 * (Smith 1981). It is both a baseline scheme and the choice
 * predictor inside the bi-mode predictor.
 */

#ifndef BPSIM_PREDICTORS_BIMODAL_HH
#define BPSIM_PREDICTORS_BIMODAL_HH

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** pc-indexed saturating-counter predictor. */
class BimodalPredictor : public FastPredictorBase<BimodalPredictor>
{
  public:
    /**
     * @param indexBits log2 of the counter count
     * @param counterWidth counter width in bits (2 in the paper)
     */
    explicit BimodalPredictor(unsigned indexBits, unsigned counterWidth = 2);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t directionCounters() const override;

    /** Index of the counter serving @p pc. */
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(pcIndexBits(pc, indexBits));
    }

    /** Devirtualized hot path for the replay kernel, and the core
     *  of the virtual step(): predicts, then trains the serving
     *  counter. Reports it (its table index) to @p hook. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const std::size_t index = indexFor(pc);
        hook.counter(index);
        const bool prediction = counters.predictTaken(index);
        counters.update(index, taken);
        return prediction;
    }

    /** Read-only access for tests and composite predictors. */
    const CounterTable &table() const { return counters; }

    unsigned indexBitCount() const { return indexBits; }

    /** Mutable view for composite predictors (the tournament steps
     *  its bimodal component's table in place). */
    CounterTable &tableRef() { return counters; }

  private:
    unsigned indexBits;
    CounterTable counters;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_BIMODAL_HH
