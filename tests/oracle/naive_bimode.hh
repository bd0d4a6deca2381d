/**
 * @file
 * The bi-mode predictor as Lee, Chen & Mudge state it ("The Bi-Mode
 * Branch Predictor", MICRO-30, 1997, Section 2), sharing no code with
 * src/: a choice table of w-bit counters indexed by the branch
 * address; two direction banks (taken, not-taken) indexed by the
 * address xor the global history; the choice selects the bank that
 * predicts. Only the selected counter learns the outcome (partial
 * update); the choice learns it too, except when it chose against the
 * outcome and the selected counter was right anyway. Footnote 2: the
 * choice and taken bank start weakly taken, the not-taken bank weakly
 * not taken. The two ablations (update both banks, always train the
 * choice) are switches. Only the index bits, the pc's low
 * word-address bits, are this project's choice.
 */

#ifndef BPSIM_TESTS_ORACLE_NAIVE_BIMODE_HH
#define BPSIM_TESTS_ORACLE_NAIVE_BIMODE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace oracle
{

struct NaiveBiMode
{
    NaiveBiMode(unsigned d, unsigned c, unsigned h, unsigned w,
                bool partial, bool alwaysChoice)
        : max((1 << w) - 1), choice(std::size_t{1} << c, max / 2 + 1),
          taken(std::size_t{1} << d, max / 2 + 1),
          notTaken(std::size_t{1} << d, max / 2),
          historyMask((std::uint64_t{1} << h) - 1), partial(partial),
          alwaysChoice(alwaysChoice)
    {
    }
    virtual ~NaiveBiMode() = default;

    /** The choice counter of @p pc: its address alone. */
    virtual std::size_t choiceIndex(std::uint64_t pc) const
    {
        return (pc >> 2) % choice.size();
    }

    /** The direction counter of @p pc in either bank (h <= d). */
    std::size_t directionIndex(std::uint64_t pc) const
    {
        return ((pc >> 2) % taken.size()) ^ history;
    }

    bool predictsTaken(int counter) const { return counter > max / 2; }

    void train(int &counter, bool outcome) const
    {
        counter = std::clamp(counter + (outcome ? 1 : -1), 0, max);
    }

    /** Predicts the branch at @p pc, then learns @p outcome. */
    bool step(std::uint64_t pc, bool outcome)
    {
        int &chooser = choice[choiceIndex(pc)];
        const bool chooseTaken = predictsTaken(chooser);
        std::vector<int> &selected = chooseTaken ? taken : notTaken;
        std::vector<int> &other = chooseTaken ? notTaken : taken;
        const std::size_t i = directionIndex(pc);
        const bool prediction = predictsTaken(selected[i]);
        train(selected[i], outcome);
        if (!partial)
            train(other[i], outcome);
        if (alwaysChoice || chooseTaken == outcome || prediction != outcome)
            train(chooser, outcome);
        history = ((history << 1) | (outcome ? 1 : 0)) & historyMask;
        return prediction;
    }

    int max;
    std::vector<int> choice, taken, notTaken;
    std::uint64_t history = 0, historyMask;
    bool partial, alwaysChoice;
};

} // namespace oracle

#endif // BPSIM_TESTS_ORACLE_NAIVE_BIMODE_HH
