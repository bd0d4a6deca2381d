/**
 * @file
 * Aggregate statistics over a branch trace.
 *
 * Produces the columns of the paper's Table 2 (static and dynamic
 * conditional branch counts) plus the per-branch bias distribution
 * used to validate the synthetic workloads against the behaviour the
 * paper cites from Chang et al. (about half of dynamic branches come
 * from static branches biased >= 90% in one direction).
 */

#ifndef BPSIM_TRACE_TRACE_STATS_HH
#define BPSIM_TRACE_TRACE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_source.hh"

namespace bpsim
{

/** Execution summary of one static branch site. */
struct StaticBranchStats
{
    std::uint64_t pc = 0;
    std::uint64_t executions = 0;
    std::uint64_t takenCount = 0;

    /** Fraction of executions that were taken. */
    double takenFraction() const;

    /**
     * True when the branch is biased at least @p threshold of the
     * time in one direction (taken or not-taken).
     */
    bool isStronglyBiased(double threshold = 0.9) const;
};

/** Whole-trace statistics (conditional branches only). */
class TraceStats
{
  public:
    /** Accumulates one record; non-conditional records are counted
     *  separately and otherwise ignored. */
    void observe(const BranchRecord &record);

    /** Convenience: drains @p reader into the accumulator. */
    void observeAll(TraceReader &reader);

    /** Number of distinct conditional branch sites seen. */
    std::uint64_t staticConditional() const;

    /** Number of dynamic conditional branch executions. */
    std::uint64_t dynamicConditional() const { return dynamicCount; }

    /** Dynamic records of non-conditional types. */
    std::uint64_t dynamicOther() const { return otherCount; }

    /** Fraction of dynamic conditional branches that were taken. */
    double takenFraction() const;

    /**
     * Fraction of dynamic conditional branches attributable to
     * static branches biased >= @p threshold in one direction.
     */
    double stronglyBiasedDynamicFraction(double threshold = 0.9) const;

    /** Per-site summaries, sorted by descending execution count. */
    std::vector<StaticBranchStats> perBranch() const;

    /** Multiplier of the site table's hash: a pc's home slot is the
     *  top log2(size) bits of pc * kPcHashMultiplier. */
    static constexpr std::uint64_t kPcHashMultiplier =
        0x9e3779b97f4a7c15ULL;

  private:
    static constexpr unsigned kInitialLog2 = 10;

    /** First slot probed for @p pc. */
    std::size_t
    homeSlot(std::uint64_t pc) const
    {
        return static_cast<std::size_t>((pc * kPcHashMultiplier) >>
                                        (64 - log2Slots));
    }

    /** The entry for @p pc, claimed if new. */
    StaticBranchStats &siteFor(std::uint64_t pc);

    /** Doubles the table and reinserts every site. */
    void grow();

    /**
     * Open-addressing table of the static sites: power-of-two size,
     * linear probing, grown at 50% load. A slot with zero executions
     * is empty, so pc 0 needs no sentinel. Every accessor either
     * counts or sorts, so the slot order never reaches an output.
     */
    std::vector<StaticBranchStats> slots =
        std::vector<StaticBranchStats>(std::size_t{1} << kInitialLog2);
    unsigned log2Slots = kInitialLog2;
    std::size_t sites = 0;

    std::uint64_t dynamicCount = 0;
    std::uint64_t takenCount = 0;
    std::uint64_t otherCount = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_STATS_HH
