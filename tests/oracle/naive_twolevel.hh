/**
 * @file
 * The two-level adaptive predictors as Yeh and Patt state them (ISCA
 * 1993), sharing no code with src/: h-bit history registers, one
 * global (GAg, GAs) or 2^l selected by the branch address (PAg, PAs),
 * over w-bit counters indexed by a pc bits concatenated above the h
 * history bits. The counter predicts and learns the outcome, which
 * then shifts into the register. Counters start weakly taken,
 * registers at zero. Only the index bits, the pc's low word-address
 * bits, are this project's choice.
 */

#ifndef BPSIM_TESTS_ORACLE_NAIVE_TWOLEVEL_HH
#define BPSIM_TESTS_ORACLE_NAIVE_TWOLEVEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace oracle
{

struct NaiveTwoLevel
{
    /** @p l is ignored when @p perAddress is false. */
    NaiveTwoLevel(unsigned h, unsigned a, unsigned l, bool perAddress,
                  unsigned w)
        : max((1 << w) - 1), counters(std::size_t{1} << (h + a), max / 2 + 1),
          registers(perAddress ? std::size_t{1} << l : 1, 0), h(h), a(a)
    {
    }
    virtual ~NaiveTwoLevel() = default;

    /** The register of @p pc: one of 2^l by its address, or the one. */
    virtual std::uint64_t &registerOf(std::uint64_t pc)
    {
        return registers[(pc >> 2) % registers.size()];
    }

    /** Predicts the branch at @p pc, then learns @p outcome. */
    bool step(std::uint64_t pc, bool outcome)
    {
        std::uint64_t &history = registerOf(pc);
        int &counter = counters[(((pc >> 2) % (1u << a)) << h) | history];
        const bool prediction = counter > max / 2;
        counter = std::clamp(counter + (outcome ? 1 : -1), 0, max);
        history = ((history << 1) | (outcome ? 1 : 0)) %
                  (std::uint64_t{1} << h);
        return prediction;
    }

    int max;
    std::vector<int> counters;
    std::vector<std::uint64_t> registers;
    unsigned h, a;
};

} // namespace oracle

#endif // BPSIM_TESTS_ORACLE_NAIVE_TWOLEVEL_HH
