/**
 * @file
 * The skewed branch predictor, e-gskew (Michaud, Seznec & Uhlig,
 * "Trading Conflict and Capacity Aliasing in Conditional Branch
 * Predictors", ISCA 1997) — the hardware-hashing de-aliasing scheme
 * the paper cites as its strongest small-budget competitor.
 *
 * Three equally-sized counter banks are indexed by three different
 * hash functions of (pc, global history); the prediction is the
 * majority vote. A pair of branches may conflict in one bank, but
 * the skewing property makes it unlikely they conflict in two, so
 * the vote usually out-votes the conflict.
 *
 * The original paper builds its hashes from GF(2) skewing matrices;
 * we substitute odd-multiplier mixing hashes with equivalent
 * inter-bank dispersion (documented in DESIGN.md) — the property the
 * scheme needs is only that the three index functions disperse
 * colliding pairs across banks.
 */

#ifndef BPSIM_PREDICTORS_GSKEW_HH
#define BPSIM_PREDICTORS_GSKEW_HH

#include <array>

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** gskew configuration. */
struct GskewConfig
{
    /** log2 counters per bank (three banks total). */
    unsigned bankIndexBits = 10;
    /** Global history length. */
    unsigned historyBits = 10;
    /** Counter width in bits. */
    unsigned counterWidth = 2;
    /**
     * Enhanced (e-gskew) partial update: bank 0 (the bimodal-indexed
     * bank) always updates; the other banks update only when the
     * overall prediction was wrong or they voted with the outcome.
     */
    bool partialUpdate = true;
};

/** Majority-vote skewed predictor. */
class GskewPredictor : public FastPredictorBase<GskewPredictor>
{
  public:
    explicit GskewPredictor(const GskewConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** Index into @p bank for @p pc under the current history. */
    std::size_t
    indexFor(unsigned bank, std::uint64_t pc) const
    {
        // Feed more address bits than the index needs so the hash can
        // disperse; pc bits above the bank width still matter.
        const std::uint64_t address =
            bitField(pc, 2, cfg.bankIndexBits + 8);
        return static_cast<std::size_t>(
            bankHash(bank, address, history.value(), cfg.bankIndexBits));
    }

    /** Devirtualized hot path: predicts, then trains, sharing one
     *  set of bank hashes and lookups. The vote has no single
     *  serving counter: @p hook
     *  hears bank 0's (the address-indexed bank) as the
     *  representative. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        std::size_t indices[3];
        indicesFor(pc, indices);
        hook.counter(indices[0]);
        const bool vote0 = banks[0].predictTaken(indices[0]);
        const bool vote1 = banks[1].predictTaken(indices[1]);
        const bool vote2 = banks[2].predictTaken(indices[2]);
        const bool prediction = static_cast<int>(vote0) +
                                    static_cast<int>(vote1) +
                                    static_cast<int>(vote2) >=
                                2;

        if (!cfg.partialUpdate || prediction != taken) {
            // On a misprediction (or with partial update disabled)
            // every bank re-learns the outcome.
            banks[0].update(indices[0], taken);
            banks[1].update(indices[1], taken);
            banks[2].update(indices[2], taken);
        } else {
            // Correct prediction: strengthen only the banks that
            // voted with the outcome, plus the always-updated bimodal
            // bank — the e-gskew partial update that protects
            // dissenting banks' state for the branches they serve
            // correctly.
            banks[0].update(indices[0], taken);
            if (vote1 == taken)
                banks[1].update(indices[1], taken);
            if (vote2 == taken)
                banks[2].update(indices[2], taken);
        }
        history.push(taken);
        return prediction;
    }

    const GskewConfig &config() const { return cfg; }

  private:
    /**
     * All three bank indices at once, deriving the shared address
     * field, history value and bank mask a single time instead of
     * once per bank as indexFor() does. The constant bank arguments
     * let the compiler fold each bankHash() switch away, so the
     * per-index work is exactly indexFor()'s (bit-identical results)
     * minus the re-derived subexpressions. This is the hot-kernel
     * entry: gskew was the slowest replay kernel because every
     * stepFast() paid the hashing three times over.
     */
    void
    indicesFor(std::uint64_t pc, std::size_t (&indices)[3]) const
    {
        const std::uint64_t address =
            bitField(pc, 2, cfg.bankIndexBits + 8);
        const std::uint64_t hist = history.value();
        indices[0] = static_cast<std::size_t>(
            bankHash(0, address, hist, cfg.bankIndexBits));
        indices[1] = static_cast<std::size_t>(
            bankHash(1, address, hist, cfg.bankIndexBits));
        indices[2] = static_cast<std::size_t>(
            bankHash(2, address, hist, cfg.bankIndexBits));
    }

    /**
     * Per-bank mixing of the (pc, history) pair. Bank 0 is indexed by
     * address alone (the e-gskew "bimodal bank"); banks 1 and 2 mix
     * the history in with different odd multipliers so that a pair of
     * branches colliding in one bank disperses in the others.
     */
    static std::uint64_t
    bankHash(unsigned bank, std::uint64_t address, std::uint64_t history,
             unsigned indexBits)
    {
        switch (bank) {
          case 0:
            return address & maskBits(indexBits);
          case 1: {
            const std::uint64_t mixed =
                (address ^ history) * 0x9e3779b97f4a7c15ULL;
            return foldXor(mixed, indexBits);
          }
          default: {
            const std::uint64_t mixed =
                (address + (history << 1)) * 0xc2b2ae3d27d4eb4fULL;
            return foldXor(mixed, indexBits);
          }
        }
    }

    GskewConfig cfg;
    HistoryRegister history;
    std::array<CounterTable, 3> banks;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_GSKEW_HH
