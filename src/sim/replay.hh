/**
 * @file
 * Replay-path dispatch: one entry point that picks the fastest
 * bit-identical way to run a predictor over a trace.
 *
 * replayKernelBankAny() routes a group of same-type predictors to
 * the devirtualized banked kernel (sim/replay_kernel.hh) through one
 * registry fold; simulateAny() is its one-lane form, falling back to
 * the virtual simulate() loop for kinds without a kernel. Runs that
 * ask for per-branch detail (SimConfig::trackPerBranch) take the
 * scalar kernels with a per-branch probe (sim/probe.hh) instead of
 * being forced onto the virtual path. Callers never need to know
 * which path was taken — results, including the per-branch table,
 * are bit-identical by contract.
 *
 * The kind classification lives in core/factory
 * (hasFastReplay()); this dispatcher lives in sim because it depends
 * on the simulation loop, which core must not.
 */

#ifndef BPSIM_SIM_REPLAY_HH
#define BPSIM_SIM_REPLAY_HH

#include <vector>

#include "predictors/predictor.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_source.hh"

namespace bpsim
{

/**
 * Runs @p predictor over one benchmark trace by the fastest
 * bit-identical path.
 *
 * @param predictor the predictor to drive (any kind)
 * @param trace rewindable reader for the virtual fallback path
 * @param packed packed form of the same trace, or null to force the
 *        virtual path (e.g. when no PackedTrace has been built)
 * @param config simulation options; trackPerBranch runs the kernel
 *        with a per-branch probe and fills SimResult::perBranch
 *
 * Equivalent to a one-lane replayKernelBankAny() when @p packed is
 * set and the kind has a kernel, else to simulate().
 *
 * @pre @p packed, when non-null, must be built from the same records
 *      @p trace yields — the dispatcher cannot check this.
 */
SimResult simulateAny(BranchPredictor &predictor, TraceReader &trace,
                      const PackedTrace *packed,
                      const SimConfig &config = {});

/**
 * Banked replay of a same-kind predictor group: one pass over
 * @p packed steps every instance (sim/replay_kernel.hh,
 * replayKernelBank()), bit-identical per instance to a lone
 * replayKernel() run.
 *
 * The instances' state is moved into a contiguous bank for the pass
 * and moved back afterwards, so on success each predictors[i] holds
 * exactly the state a solo run would have left and results[i] its
 * counts (with the shared-pass timing attribution described at
 * SimResult::wallNanos).
 *
 * The concrete type is that of predictors.front(); with
 * SimConfig::trackPerBranch every lane also gets its per-branch table
 * (the bank then runs the scalar kernels, kernelTier == Scalar).
 *
 * @param predictors the group, all non-null and of one concrete type
 * @return true when the bank ran; false when the group is empty, the
 *         first instance's type has no bank kernel, or another
 *         instance is of a different type — the group is then
 *         untouched and the caller falls back to the virtual loop
 */
bool replayKernelBankAny(const std::vector<BranchPredictor *> &predictors,
                         const PackedTrace &packed,
                         const SimConfig &config,
                         std::vector<SimResult> &results);

} // namespace bpsim

#endif // BPSIM_SIM_REPLAY_HH
