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

    /**
     * Devirtualized hot path for the replay kernel: the direction of
     * predict(), which derives from it.
     */
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
    }

    /** Fused hot path: predict + update sharing one index/lookup;
     *  bit-identical to predictFast() then updateFast(). Reports the
     *  serving counter (its table index) to @p hook. */
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

    /** Mutable SoA view for the SIMD bank (sim/simd/simd_bank.cc),
     *  which copies the table into a gather arena and back. */
    CounterTable &tableRef() { return counters; }

  private:
    unsigned indexBits;
    CounterTable counters;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_BIMODAL_HH
