/**
 * @file
 * Compile-time accounting probes for the replay kernels.
 *
 * The replay stack's speed rests on hot loops that touch nothing but
 * predictor state and the trace; any per-branch instrumentation
 * added unconditionally would tax every campaign that never asked
 * for it. Probes resolve that tension at compile time: the scalar
 * kernels (sim/replay_kernel.hh) take a Probe template parameter
 * whose record() call sits in the measured loop.
 * The default NullProbe's record() is an empty inline function — the
 * instantiation is the exact pre-probe loop, so the unprobed kernels
 * keep their codegen and throughput (bench/perf_replay.cc guards
 * this against BENCH_replay.json). PerBranchProbe is the one real
 * sink: a dense uint64 misprediction counter per static branch,
 * indexed by PcIndex's compact per-record ids — one load and one add
 * per measured branch, no hashing.
 *
 * Probes accumulate only mispredictions. Executions and taken counts
 * per static branch are facts of the trace (lane- and
 * predictor-independent), recovered separately by
 * PcIndex::countRange() over the measured region;
 * assemblePerBranch() joins the two into the SimResult::perBranch
 * rows the virtual loop produces, bit-identically (enforced by
 * tests/sim/test_probe.cc).
 *
 * Bank forms: replayKernelBank() takes a BankProbe whose lane(l)
 * yields the per-lane solo probe, so the scalar bank's lane-major
 * loop records into disjoint per-lane counter blocks. A probed bank
 * never takes a SIMD tier: the vectorized kernels carry no probe.
 */

#ifndef BPSIM_SIM_PROBE_HH
#define BPSIM_SIM_PROBE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "trace/pc_index.hh"

namespace bpsim
{

/** The default probe: records nothing, compiles to nothing. */
struct NullProbe
{
    void record(std::size_t /* i */, bool /* mispredicted */) const {}
};

/** Dense per-static-branch misprediction sink for one replay lane. */
struct PerBranchProbe
{
    /** Per-record ids, PcIndex::idData() of the replayed trace. */
    const std::uint32_t *ids = nullptr;
    /** One counter per static branch (PcIndex::staticCount()),
     *  zero-initialized by the caller. */
    std::uint64_t *misses = nullptr;

    void
    record(std::size_t i, bool mispredicted) const
    {
        misses[ids[i]] += static_cast<std::uint64_t>(mispredicted);
    }
};

/** Bank form of NullProbe: every lane records nothing. */
struct NullBankProbe
{
    /** False lets replayKernelBank() try the SIMD tiers; enabled
     *  bank probes keep a bank on the scalar lanes. */
    static constexpr bool kEnabled = false;

    NullProbe lane(std::size_t /* l */) const { return {}; }
};

/**
 * Bank form of PerBranchProbe: lane-major misprediction counters,
 * lane l owning misses[l * staticCount .. (l + 1) * staticCount).
 */
struct PerBranchBankProbe
{
    static constexpr bool kEnabled = true;

    /** Per-record ids shared by every lane. */
    const std::uint32_t *ids = nullptr;
    /** lanes * staticCount counters, zero-initialized. */
    std::uint64_t *misses = nullptr;
    std::size_t staticCount = 0;

    PerBranchProbe
    lane(std::size_t l) const
    {
        return {ids, misses + l * staticCount};
    }
};

/**
 * Joins a probe's misprediction counters with the trace-side
 * execution/taken counts into SimResult::perBranch rows: branches
 * that never execute in the measured region are dropped (the virtual
 * loop never sees them) and rows sort by descending executions, then
 * ascending pc — exactly simulate()'s order, so probed and virtual
 * results compare byte-for-byte.
 */
inline std::vector<PerBranchResult>
assemblePerBranch(const PcIndex &index,
                  const PcIndex::RangeCounts &counts,
                  const std::uint64_t *misses)
{
    std::vector<PerBranchResult> rows;
    rows.reserve(index.staticCount());
    for (std::size_t id = 0; id < index.staticCount(); ++id) {
        if (counts.executions[id] == 0)
            continue;
        PerBranchResult row;
        row.pc = index.pcOf(static_cast<std::uint32_t>(id));
        row.executions = counts.executions[id];
        row.takenCount = counts.taken[id];
        row.mispredictions = misses[id];
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const PerBranchResult &a, const PerBranchResult &b) {
                  if (a.executions != b.executions)
                      return a.executions > b.executions;
                  return a.pc < b.pc;
              });
    return rows;
}

} // namespace bpsim

#endif // BPSIM_SIM_PROBE_HH
