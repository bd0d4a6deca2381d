/**
 * @file
 * The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997),
 * one of the concurrent de-aliasing proposals the paper compares
 * against in its related-work discussion.
 *
 * Each branch carries a *biasing bit* (in hardware, attached to the
 * BTB/I-cache line; here, a pc-indexed bit table) set to the
 * branch's first observed outcome. The gshare-indexed second-level
 * counters then predict whether the branch will AGREE with its bias
 * rather than whether it will be taken. Two oppositely-biased
 * branches aliasing to the same counter both push it toward "agree",
 * converting destructive interference into neutral interference.
 */

#ifndef BPSIM_PREDICTORS_AGREE_HH
#define BPSIM_PREDICTORS_AGREE_HH

#include <vector>

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** Agree predictor configuration. */
struct AgreeConfig
{
    /** log2 of the agree-counter table size. */
    unsigned indexBits = 10;
    /** Global history length, <= indexBits. */
    unsigned historyBits = 10;
    /** log2 of the biasing-bit table size. */
    unsigned biasIndexBits = 10;
    /** Counter width in bits. */
    unsigned counterWidth = 2;
};

/** Bias-agreement de-aliased gshare. */
class AgreePredictor : public FastPredictorBase<AgreePredictor>
{
  public:
    explicit AgreePredictor(const AgreeConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** Devirtualized hot path: the direction of predict(). */
    bool
    predictFast(std::uint64_t pc) const
    {
        const std::size_t bias_index = biasIndexFor(pc);
        // An unseen branch has no bias yet; treat the bias as taken
        // (matching the counters' weakly-taken start).
        const bool bias =
            biasValid[bias_index] ? biasBit[bias_index] != 0 : true;
        return counters.predictTaken(counterIndexFor(pc)) == bias;
    }

    /** Devirtualized hot path: the state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        const std::size_t bias_index = biasIndexFor(pc);
        if (!biasValid[bias_index]) {
            // First encounter fixes the biasing bit to the outcome.
            biasValid[bias_index] = 1;
            biasBit[bias_index] = taken ? 1 : 0;
        }
        const bool bias = biasBit[bias_index] != 0;
        counters.update(counterIndexFor(pc), taken == bias);
        history.push(taken);
    }

    /** Fused hot path: predict + update sharing one set of lookups;
     *  bit-identical to predictFast() then updateFast(). The
     *  prediction uses the pre-update bias (default taken for an
     *  unseen branch); the counter trains against the post-capture
     *  bias, exactly as the split path does. Reports the agree
     *  counter (its table index) to @p hook. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const std::size_t bias_index = biasIndexFor(pc);
        const std::size_t index = counterIndexFor(pc);
        hook.counter(index);
        const bool old_bias =
            biasValid[bias_index] ? biasBit[bias_index] != 0 : true;
        const bool prediction = counters.predictTaken(index) == old_bias;
        if (!biasValid[bias_index]) {
            biasValid[bias_index] = 1;
            biasBit[bias_index] = taken ? 1 : 0;
        }
        const bool bias = biasBit[bias_index] != 0;
        counters.update(index, taken == bias);
        history.push(taken);
        return prediction;
    }

    const AgreeConfig &config() const { return cfg; }

    /** Mutable SoA views for the SIMD bank (sim/simd/simd_bank.cc),
     *  which copies counters, biasing bits and history into vector
     *  lane state and back. */
    CounterTable &tableRef() { return counters; }
    HistoryRegister &historyRef() { return history; }
    std::vector<std::uint16_t> &biasBitRef() { return biasBit; }
    std::vector<std::uint16_t> &biasValidRef() { return biasValid; }

  private:
    std::size_t
    counterIndexFor(std::uint64_t pc) const
    {
        const std::uint64_t address = pcIndexBits(pc, cfg.indexBits);
        return static_cast<std::size_t>(address ^ history.value());
    }

    std::size_t
    biasIndexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            pcIndexBits(pc, cfg.biasIndexBits));
    }

    AgreeConfig cfg;
    HistoryRegister history;
    CounterTable counters;
    /** Biasing bit per entry plus a valid bit (first-use capture).
     *  uint16 rather than uint8 for the same aliasing reason as
     *  CounterTable: unsigned-char stores would defeat type-based
     *  alias analysis in the inlined replay kernel. */
    std::vector<std::uint16_t> biasBit;
    std::vector<std::uint16_t> biasValid;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_AGREE_HH
