/**
 * @file
 * The branch predictor interface.
 *
 * All predictors in this project are conditional-direction predictors
 * operated trace-driven: the harness calls step(pc, outcome), which
 * predicts the branch and then trains on its resolved direction (the
 * paper's methodology; no speculative-history repair is modelled
 * because the paper models none).
 *
 * Which 2-bit counter served a prediction is not part of this
 * interface: a fast-core predictor reports it through the counter
 * hook of its stepFast() (predictors/fast_base.hh), which the replay
 * kernel forwards to its probe. The bias-class analysis of the
 * paper's Section 4 (Figures 5-8, Tables 3-4) is built entirely on
 * that hook, keeping the analysis code independent of any particular
 * predictor's internals.
 */

#ifndef BPSIM_PREDICTORS_PREDICTOR_HH
#define BPSIM_PREDICTORS_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>

namespace bpsim
{

/** Abstract conditional branch direction predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predicts the branch at @p pc, then trains on its resolved
     * direction @p taken. Returns the prediction made before
     * training, which never depends on @p taken.
     */
    virtual bool step(std::uint64_t pc, bool taken) = 0;

    /** Restores the power-on state (including history registers). */
    virtual void reset() = 0;

    /** Short human-readable name including the configuration. */
    virtual std::string name() const = 0;

    /**
     * Total state in bits: counters, history registers, tags, bias
     * bits — everything the hardware would hold.
     */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Cost under the paper's convention: bits spent in prediction
     * counters only (the figures' x-axis is "K bytes of two-bit
     * counters"). Defaults to storageBits().
     */
    virtual std::uint64_t counterBits() const { return storageBits(); }

    /**
     * Number of direction counters; the ids a fast core's counter
     * hook reports lie in [0, directionCounters()). 0 when the
     * predictor exposes no counters (every registered kind does; a
     * user subclass of this interface may not).
     */
    virtual std::uint64_t directionCounters() const { return 0; }
};

using PredictorPtr = std::unique_ptr<BranchPredictor>;

} // namespace bpsim

#endif // BPSIM_PREDICTORS_PREDICTOR_HH
