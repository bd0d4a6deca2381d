/**
 * @file
 * The replay pass shared by the Section 4 analyses: a trace streamed
 * through a predictor's fast core on the scalar replay kernel, with
 * each branch's serving counter read off the core's counter hook
 * (sim/probe.hh).
 */

#ifndef BPSIM_ANALYSIS_COUNTER_REPLAY_HH
#define BPSIM_ANALYSIS_COUNTER_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/registry.hh"
#include "sim/replay_kernel.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{

/**
 * Replays @p trace, from its start, through @p predictor's fast core
 * from power-on, calling f(pc, taken, counterId, mispredicted) for
 * every conditional branch in trace order.
 *
 * The trace is packed and replayed 8K records at a time. The
 * predictor carries its state from chunk to chunk, so the pass is
 * one replay of the whole trace, but the packed copy stays at
 * 64 KiB, below glibc's default mmap threshold, however long the
 * trace is. A whole-trace copy per worker raised the end-to-end
 * paper reproduction's peak RSS past its 10% bound.
 *
 * @return the pass's counts, as simulate() reports them; nullopt,
 *         with nothing run, when the predictor has no fast core
 */
template <typename F>
std::optional<SimResult>
replayCounters(BranchPredictor &predictor, TraceReader &trace, F &&f)
{
    constexpr std::size_t kChunkRecords = std::size_t{1} << 13;
    std::optional<SimResult> total;
    visitFastPredictor(predictor, [&](auto &fast) {
        predictor.reset();
        trace.rewind();
        total.emplace();
        total->predictorName = predictor.name();
        total->counterBits = predictor.counterBits();
        total->storageBits = predictor.storageBits();
        for (PackedTrace chunk(trace, kChunkRecords); !chunk.empty();
             chunk = PackedTrace(trace, kChunkRecords)) {
            const SimResult part = replayKernel(
                fast, chunk, SimConfig{},
                CounterProbe{[&](std::size_t i, std::uint64_t counter,
                                 bool mispredicted) {
                    f(chunk.pc(i), chunk.taken(i), counter, mispredicted);
                }});
            total->branches += part.branches;
            total->mispredictions += part.mispredictions;
            total->takenBranches += part.takenBranches;
            total->wallNanos += part.wallNanos;
        }
    });
    return total;
}

} // namespace bpsim

#endif // BPSIM_ANALYSIS_COUNTER_REPLAY_HH
