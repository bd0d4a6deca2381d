/**
 * @file
 * The YAGS predictor (Eden & Mudge, MICRO-31 1998) — the direct
 * successor of the bi-mode predictor from the same group, included
 * as the paper's "future work" direction made concrete.
 *
 * YAGS keeps bi-mode's pc-indexed choice predictor but replaces the
 * two full direction banks with two small *tagged caches* (a taken
 * cache and a not-taken cache) that store only the exceptions — the
 * (history, pc) situations where a branch deviates from its bias.
 * A cache hit overrides the choice prediction; a miss falls back to
 * the choice predictor's direction.
 */

#ifndef BPSIM_PREDICTORS_YAGS_HH
#define BPSIM_PREDICTORS_YAGS_HH

#include <vector>

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "util/bits.hh"

namespace bpsim
{

/** YAGS configuration. */
struct YagsConfig
{
    /** log2 of the choice (bimodal) table size. */
    unsigned choiceIndexBits = 12;
    /** log2 of each direction cache's entry count. */
    unsigned cacheIndexBits = 10;
    /** Partial tag width stored per cache entry. */
    unsigned tagBits = 6;
    /** Global history length. */
    unsigned historyBits = 10;
    /** Counter width in bits. */
    unsigned counterWidth = 2;
};

/** Tagged-exception-cache successor to bi-mode. */
class YagsPredictor : public FastPredictorBase<YagsPredictor>
{
  public:
    static constexpr std::uint32_t kNotTakenCache = 0;
    static constexpr std::uint32_t kTakenCache = 1;

    explicit YagsPredictor(const YagsConfig &config);

    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;
    std::uint64_t directionCounters() const override;

    /** Devirtualized hot path: the direction of predict(). */
    bool predictFast(std::uint64_t pc) const
    {
        return lookupFor(pc).prediction;
    }

    /** Fused hot path: predict + update sharing one lookupFor();
     *  bit-identical to predictFast() then updateFast(). @p hook
     *  hears cache * cacheSize + the cache index on a hit, else
     *  2 * cacheSize + the choice index. */
    template <typename Hook = NoCounterHook>
    bool
    stepFast(std::uint64_t pc, bool taken, Hook &&hook = {})
    {
        const Lookup look = lookupFor(pc);
        const std::uint64_t cache_size = caches[0].size();
        hook.counter(look.hit ? look.cache * cache_size + look.cacheIndex
                              : 2 * cache_size + look.choiceIndex);
        const std::uint8_t max_counter =
            static_cast<std::uint8_t>(maskBits(cfg.counterWidth));

        if (look.hit) {
            // Branchless saturate-and-step, as in CounterTable.
            CacheEntry &entry = caches[look.cache][look.cacheIndex];
            const std::uint16_t up = static_cast<std::uint16_t>(
                entry.counter + (entry.counter < max_counter ? 1 : 0));
            const std::uint16_t down = static_cast<std::uint16_t>(
                entry.counter - (entry.counter > 0 ? 1 : 0));
            entry.counter = taken ? up : down;
        } else if (look.choiceTaken != taken) {
            // The branch deviated from its bias and no exception
            // entry existed: allocate one, initialized weakly toward
            // the outcome.
            CacheEntry &entry = caches[look.cache][look.cacheIndex];
            entry.valid = true;
            entry.tag = look.tag;
            entry.counter =
                taken ? SaturatingCounter::weaklyTaken(cfg.counterWidth)
                      : SaturatingCounter::weaklyNotTaken(
                            cfg.counterWidth);
        }

        // Choice table follows the bi-mode policy: train with the
        // outcome unless the choice was wrong but the cache corrected
        // it.
        const bool keep_choice =
            look.choiceTaken != taken && look.prediction == taken;
        if (!keep_choice)
            choice.update(look.choiceIndex, taken);

        history.push(taken);
        return look.prediction;
    }

    /** Devirtualized hot path: the state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        (void)stepFast(pc, taken);
    }

    struct CacheEntry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        /** Counter values fit 8 bits; uint16 storage keeps the entry
         *  stores out of the unsigned-char universal-aliasing class
         *  (see CounterTable::values). */
        std::uint16_t counter = 0;
    };

    const YagsConfig &config() const { return cfg; }

    /** @name Mutable SoA views for the SIMD bank
     *  (sim/simd/simd_bank.cc), which packs each cache entry into
     *  one arena word (counter | tag << 8 | valid << 24) and back. */
    /**@{*/
    CounterTable &choiceTableRef() { return choice; }
    std::vector<CacheEntry> &cacheRef(std::uint32_t cache)
    {
        return caches[cache];
    }
    HistoryRegister &historyRef() { return history; }
    /**@}*/

  private:
    struct Lookup
    {
        std::size_t choiceIndex;
        bool choiceTaken;
        std::uint32_t cache;   // cache consulted (opposite of choice)
        std::size_t cacheIndex;
        std::uint16_t tag;
        bool hit;
        bool prediction;
    };

    Lookup
    lookupFor(std::uint64_t pc) const
    {
        // The word address feeds all three derivations below (choice
        // index, cache index, tag), so it is extracted a single time
        // rather than re-shifted per field. This is the hot-kernel
        // entry: every stepFast() runs one lookupFor(), and the
        // scalar bank loop pays it per lane per branch.
        const std::uint64_t word = pc >> 2;
        Lookup look;
        look.choiceIndex = static_cast<std::size_t>(
            word & maskBits(cfg.choiceIndexBits));
        look.choiceTaken = choice.predictTaken(look.choiceIndex);
        // Exceptions to a taken bias live in the not-taken cache and
        // vice versa: consult the cache opposite to the choice.
        look.cache = look.choiceTaken ? kNotTakenCache : kTakenCache;
        look.cacheIndex = static_cast<std::size_t>(
            (word & maskBits(cfg.cacheIndexBits)) ^ history.value());
        // Tag with the pc bits just above the cache index so aliasing
        // pairs that share an index usually differ in tag.
        look.tag = static_cast<std::uint16_t>(
            (word >> cfg.cacheIndexBits) & maskBits(cfg.tagBits));
        const CacheEntry &entry = caches[look.cache][look.cacheIndex];
        look.hit = entry.valid && entry.tag == look.tag;
        if (look.hit) {
            const std::uint8_t mid = static_cast<std::uint8_t>(
                maskBits(cfg.counterWidth) / 2);
            look.prediction = entry.counter > mid;
        } else {
            look.prediction = look.choiceTaken;
        }
        return look;
    }

    YagsConfig cfg;
    HistoryRegister history;
    CounterTable choice;
    std::vector<CacheEntry> caches[2];
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_YAGS_HH
