/**
 * @file
 * gshare as McFarling states it ("Combining Branch Predictors", WRL
 * TN-36, 1993), sharing no code with src/: one table of 2^n w-bit
 * counters indexed by the branch address xor an m-bit global history
 * (m <= n); the indexed counter predicts and learns the outcome,
 * which then shifts into the history. Counters start weakly taken
 * (the bi-mode paper's footnote 2). Only the index bits, the pc's low
 * word-address bits, are this project's choice.
 */

#ifndef BPSIM_TESTS_ORACLE_NAIVE_GSHARE_HH
#define BPSIM_TESTS_ORACLE_NAIVE_GSHARE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace oracle
{

struct NaiveGshare
{
    NaiveGshare(unsigned n, unsigned m, unsigned w)
        : max((1 << w) - 1), counters(std::size_t{1} << n, max / 2 + 1),
          historyBits(m)
    {
    }
    virtual ~NaiveGshare() = default;

    /** The counter of @p pc: its address xor the history. */
    virtual std::size_t index(std::uint64_t pc) const
    {
        return ((pc >> 2) % counters.size()) ^ history;
    }

    /** Predicts the branch at @p pc, then learns @p outcome. */
    bool step(std::uint64_t pc, bool outcome)
    {
        int &counter = counters[index(pc)];
        const bool prediction = counter > max / 2;
        counter = std::clamp(counter + (outcome ? 1 : -1), 0, max);
        history = ((history << 1) | (outcome ? 1 : 0)) %
                  (std::uint64_t{1} << historyBits);
        return prediction;
    }

    int max;
    std::vector<int> counters;
    unsigned historyBits;
    std::uint64_t history = 0;
};

} // namespace oracle

#endif // BPSIM_TESTS_ORACLE_NAIVE_GSHARE_HH
