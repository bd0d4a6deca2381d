/**
 * @file
 * The gshare predictor (McFarling 1993), parameterized the way the
 * paper studies it.
 *
 * gshare forms its second-level index by xor-ing global history with
 * low-order pc bits. With an n-bit index and m <= n history bits the
 * top n-m index bits are pure address bits, so the table behaves as
 * 2^(n-m) separate PHTs of 2^m counters — exactly the "multiple
 * PHTs" configurations of the paper:
 *
 *   m == n  -> gshare.1PHT (the textbook single-PHT configuration)
 *   m <  n  -> multi-PHT configurations, among which the paper's
 *              exhaustive sweep finds gshare.best
 */

#ifndef BPSIM_PREDICTORS_GSHARE_HH
#define BPSIM_PREDICTORS_GSHARE_HH

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** Global-history xor-indexed two-level predictor. */
class GsharePredictor : public FastPredictorBase<GsharePredictor>
{
  public:
    /**
     * @param indexBits n: log2 of the counter count
     * @param historyBits m: global history length, m <= n
     * @param counterWidth counter width in bits
     */
    GsharePredictor(unsigned indexBits, unsigned historyBits,
                    unsigned counterWidth = 2);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** Second-level index for @p pc under the current history. */
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        // History xors into the low bits; with m < n the top n-m bits
        // stay pure address, i.e. they select among 2^(n-m) PHTs.
        const std::uint64_t address = pcIndexBits(pc, indexBits);
        return static_cast<std::size_t>(address ^ history.value());
    }

    /** Devirtualized hot path: predicts, then trains the serving
     *  counter and shifts the outcome into the history. Reports the
     *  serving counter (its table index) to @p hook. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const std::size_t index = indexFor(pc);
        hook.counter(index);
        const bool prediction = counters.predictTaken(index);
        counters.update(index, taken);
        history.push(taken);
        return prediction;
    }

    unsigned indexBitCount() const { return indexBits; }
    unsigned historyBitCount() const { return history.bits(); }

    /** Mutable SoA views for the SIMD bank (sim/simd/simd_bank.cc),
     *  which copies counters and history into vector lane state and
     *  back, and for the tournament, which steps its gshare component
     *  in place. */
    CounterTable &tableRef() { return counters; }
    HistoryRegister &historyRef() { return history; }

    /** Number of PHTs this configuration is equivalent to. */
    std::uint64_t
    phtCount() const
    {
        return std::uint64_t{1} << (indexBits - history.bits());
    }

  private:
    unsigned indexBits;
    HistoryRegister history;
    CounterTable counters;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_GSHARE_HH
