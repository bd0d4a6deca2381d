/**
 * @file
 * Driver tying together the Section 4 analyses: it runs a predictor
 * over a trace while decomposing the branch stream into s_ij
 * substreams, then derives
 *
 *  - the per-counter bias profile (Figures 5/6, Table 3),
 *  - the misprediction breakdown by bias class (Figures 7/8),
 *  - the bias-class transition counts (Table 4).
 *
 * Both passes run the scalar replay kernel, reading each branch's
 * serving counter off the predictor's counter hook
 * (analysis/counter_replay.hh). The transition count needs the
 * classes — which are only known after the whole run — so it replays
 * the trace a second time against a reset predictor (all predictors
 * here are deterministic, so the replay reproduces the same counter
 * assignments). Every registered kind has a fast core; a predictor
 * of no registered type (a user subclass of BranchPredictor) has
 * none, reports no counters and is refused. The perceptron's
 * counters are its perceptrons.
 */

#ifndef BPSIM_ANALYSIS_BIAS_ANALYSIS_HH
#define BPSIM_ANALYSIS_BIAS_ANALYSIS_HH

#include "analysis/counter_profile.hh"
#include "analysis/stream_tracker.hh"
#include "sim/simulator.hh"

namespace bpsim
{

/** Misprediction attributed to each bias class, as percentages of
 *  all measured dynamic branches (so the three sum to the scheme's
 *  overall misprediction rate — the paper's Figure 7/8 encoding). */
struct MispredictionBreakdown
{
    double stPercent = 0.0;
    double sntPercent = 0.0;
    double wbPercent = 0.0;

    double
    totalPercent() const
    {
        return stPercent + sntPercent + wbPercent;
    }
};

/** Table 4: how often each class's run at a counter was broken. */
struct TransitionCounts
{
    /** Changes leaving the counter's dominant class. */
    std::uint64_t dominant = 0;
    /** Changes leaving the non-dominant strongly-biased class. */
    std::uint64_t nonDominant = 0;
    /** Changes leaving the weakly-biased class. */
    std::uint64_t weak = 0;

    std::uint64_t
    total() const
    {
        return dominant + nonDominant + weak;
    }
};

/** One-predictor, one-trace Section 4 analysis. */
class BiasAnalysis
{
  public:
    /**
     * @param predictor analyzed predictor with a fast core; reset
     *        before each pass
     * @param trace trace to analyze; rewound before each pass
     * @param threshold bias-class threshold (paper: 0.9)
     */
    BiasAnalysis(BranchPredictor &predictor, TraceReader &trace,
                 double threshold = 0.9);

    /** Executes pass 1 (idempotent). */
    void run();

    /** The substream decomposition (pass 1 must have run). */
    const StreamTracker &streams() const { return tracker; }

    /** Overall accuracy result of pass 1. */
    const SimResult &result() const { return simResult; }

    /** Per-counter bias profile. */
    CounterProfile counterProfile() const;

    /** Misprediction percentages by bias class. */
    MispredictionBreakdown breakdown() const;

    /** Table 4 transition counts (runs the replay pass). */
    TransitionCounts countTransitions();

  private:
    void ensureRan() const;

    BranchPredictor &predictor;
    TraceReader &trace;
    double threshold;
    bool ran = false;
    StreamTracker tracker;
    SimResult simResult;
};

} // namespace bpsim

#endif // BPSIM_ANALYSIS_BIAS_ANALYSIS_HH
