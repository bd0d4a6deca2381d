/**
 * @file
 * CRTP adapter mapping the virtual BranchPredictor interface onto a
 * predictor's devirtualized fast core.
 *
 * Every registered predictor (core/registry.hh) implements a
 * non-virtual core —
 *
 *   bool stepFast(pc, taken, hook)   predict, then train on taken
 *   void resetFast()                 power-on state
 *
 * — which the replay kernel (sim/replay_kernel.hh) calls directly.
 * This base derives the virtual step()/reset() from that core, so the
 * virtual path and the fast path are the same code by construction:
 * the bit-identity contract between simulate() and replayKernel()
 * cannot drift because there is no second implementation to drift.
 *
 * The counter hook: stepFast() calls hook.counter(id) exactly once,
 * with the global id of the direction counter its prediction read,
 * in [0, directionCounters()). That id is the whole of the paper's
 * Section 4 provenance — the analyses (analysis/) key their streams
 * on it — and the kernel's probe is the hook, so the default
 * NoCounterHook and the per-branch probes, whose counter() is empty,
 * compile the id away.
 *
 * The overrides are final: a predictor that needs different virtual
 * behaviour than its fast core has, by definition, no fast core and
 * should derive from BranchPredictor directly.
 */

#ifndef BPSIM_PREDICTORS_FAST_BASE_HH
#define BPSIM_PREDICTORS_FAST_BASE_HH

#include "predictors/predictor.hh"

namespace bpsim
{

/** stepFast()'s default counter hook: drops the id. */
struct NoCounterHook
{
    void counter(std::uint64_t /* id */) const {}
};

/** A counter hook keeping the last id reported. */
struct LastCounterHook
{
    std::uint64_t id = 0;

    void counter(std::uint64_t served) { id = served; }
};

/** Id of the direction counter serving @p pc in @p predictor's
 *  current state, read off a stepped copy; the caller's predictor is
 *  untouched. */
template <typename Pred>
std::uint64_t
servingCounter(Pred predictor, std::uint64_t pc)
{
    LastCounterHook hook;
    (void)predictor.stepFast(pc, false, hook);
    return hook.id;
}

/** Direction @p predictor predicts for @p pc in its current state,
 *  read off a stepped copy; the caller's predictor is untouched. */
template <typename Pred>
bool
predictionFor(Pred predictor, std::uint64_t pc)
{
    return predictor.stepFast(pc, false);
}

/** Derives the virtual predictor interface from Derived's
 *  non-virtual fast core (stepFast/resetFast). */
template <typename Derived>
class FastPredictorBase : public BranchPredictor
{
  public:
    bool
    step(std::uint64_t pc, bool taken) final
    {
        return self().stepFast(pc, taken);
    }

    void reset() final { self().resetFast(); }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_FAST_BASE_HH
