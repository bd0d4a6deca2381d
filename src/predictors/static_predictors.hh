/**
 * @file
 * Stateless baseline predictors: always-taken, always-not-taken, and
 * backward-taken/forward-not-taken (BTFN). These anchor the accuracy
 * comparisons and are the kinds the Section 4 analyses refuse.
 */

#ifndef BPSIM_PREDICTORS_STATIC_PREDICTORS_HH
#define BPSIM_PREDICTORS_STATIC_PREDICTORS_HH

#include <vector>

#include "predictors/predictor.hh"

namespace bpsim
{

/** Predicts every branch taken. */
class AlwaysTakenPredictor : public BranchPredictor
{
  public:
    bool predict(std::uint64_t) const override { return true; }

    void update(std::uint64_t, bool) override {}
    void reset() override {}
    std::string name() const override { return "always-taken"; }
    std::uint64_t storageBits() const override { return 0; }
};

/** Predicts every branch not taken. */
class AlwaysNotTakenPredictor : public BranchPredictor
{
  public:
    bool predict(std::uint64_t) const override { return false; }

    void update(std::uint64_t, bool) override {}
    void reset() override {}
    std::string name() const override { return "always-not-taken"; }
    std::uint64_t storageBits() const override { return 0; }
};

/**
 * Backward-taken / forward-not-taken.
 *
 * A trace-driven BTFN needs the branch target to classify direction;
 * since the BranchPredictor interface is pc-only (matching the
 * hardware front end before decode), the target sense is learned
 * from the first update: a sticky per-pc "backward" bit would need a
 * table, so instead we use the static heuristic on the pc/target
 * relation recorded at update time via a small direction cache.
 */
class BtfnPredictor : public BranchPredictor
{
  public:
    /** @param entriesLog2 log2 size of the direction-sense cache */
    explicit BtfnPredictor(unsigned entriesLog2);

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;

    /** Records the taken-target of @p pc, fixing the
     *  backward/forward sense of the branch. */
    void observeTarget(std::uint64_t pc, std::uint64_t target) override;

    void reset() override;
    std::string name() const override;
    std::uint64_t storageBits() const override;

  private:
    unsigned indexBits;
    /** 0 = unknown, 1 = forward, 2 = backward. */
    std::vector<std::uint8_t> sense;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_STATIC_PREDICTORS_HH
